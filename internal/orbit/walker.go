package orbit

import (
	"fmt"
	"math"
	"time"
)

// Walker describes a Walker-delta constellation i:T/P/F — T satellites in P
// equally spaced orbital planes of T/P satellites each, all circular at the
// same altitude and inclination. Plane p's RAAN is p·360°/P (delta pattern:
// the planes' ascending nodes span the full circle), satellite s of plane p
// sits at phase s·360°/(T/P) within its plane, offset by the inter-plane
// phasing p·F·360°/T. It is the standard parameterization for LEO
// constellations with grid crosslinks, which is the network the paper's
// multi-satellite setting (§2) assumes.
type Walker struct {
	// Planes is P, the number of orbital planes.
	Planes int
	// PerPlane is T/P, the number of satellites in each plane.
	PerPlane int
	// PhasingF is the Walker phasing factor F in [0, Planes): adjacent
	// planes are phase-shifted by F·360°/T, which staggers cross-plane
	// neighbors so they do not bunch at the equator crossings.
	PhasingF int
	// AltitudeM is the shared circular-orbit altitude [m].
	AltitudeM float64
	// InclinationDeg is the shared inclination [degrees].
	InclinationDeg float64
}

// Validate reports the first parameter error.
func (w Walker) Validate() error {
	if w.Planes < 1 || w.PerPlane < 1 {
		return fmt.Errorf("orbit: walker needs >=1 plane and >=1 sat/plane, got %d x %d", w.Planes, w.PerPlane)
	}
	if w.PhasingF < 0 || w.PhasingF >= w.Planes {
		return fmt.Errorf("orbit: walker phasing F=%d outside [0, %d)", w.PhasingF, w.Planes)
	}
	if !(w.AltitudeM > 0) || math.IsInf(w.AltitudeM, 1) {
		return fmt.Errorf("orbit: walker altitude %.0f m must be positive and finite", w.AltitudeM)
	}
	if math.IsNaN(w.InclinationDeg) || math.IsInf(w.InclinationDeg, 0) {
		return fmt.Errorf("orbit: walker inclination %v° must be finite", w.InclinationDeg)
	}
	return nil
}

// Total returns T, the satellite count.
func (w Walker) Total() int { return w.Planes * w.PerPlane }

// Orbit returns the orbit of satellite idx (0..PerPlane-1) of plane
// (0..Planes-1).
func (w Walker) Orbit(plane, idx int) Orbit {
	t := float64(w.Total())
	return Orbit{
		AltitudeM:      w.AltitudeM,
		InclinationRad: w.InclinationDeg * math.Pi / 180,
		RAANRad:        2 * math.Pi * float64(plane) / float64(w.Planes),
		PhaseRad: 2*math.Pi*float64(idx)/float64(w.PerPlane) +
			2*math.Pi*float64(plane*w.PhasingF)/t,
	}
}

// Orbits returns every satellite's orbit in canonical order: plane-major,
// i.e. satellite plane*PerPlane+idx is satellite idx of plane. Shard
// partitioning and report aggregation both key off this order, so it is part
// of the determinism contract.
func (w Walker) Orbits() []Orbit {
	out := make([]Orbit, 0, w.Total())
	for p := 0; p < w.Planes; p++ {
		for s := 0; s < w.PerPlane; s++ {
			out = append(out, w.Orbit(p, s))
		}
	}
	return out
}

// Latitude returns the geocentric latitude [rad] of the satellite at time t
// after epoch. Cross-plane crosslinks are conventionally unusable above a
// polar latitude threshold (the planes converge and the relative geometry
// swings too fast for the pointing system), which is what drives the
// handover churn the constellation experiments measure.
func (o Orbit) Latitude(t time.Duration) float64 {
	p := o.Position(t)
	return math.Asin(p.Z / p.Norm())
}
