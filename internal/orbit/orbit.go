// Package orbit supplies the low-earth-orbit geometry the paper's target
// network is built from: circular-orbit satellite motion, inter-satellite
// range R_t as a function of time, line-of-sight visibility windows (the
// "link lifetime" of a few minutes the protocol is designed around), and the
// derived timing quantities the analysis needs — mean round-trip time R,
// range variance for the HDLC timeout t_out = R + α, and the retargeting
// overhead between visibility windows.
//
// The model is two-body circular motion in an Earth-centered inertial frame.
// That is deliberately simple — the paper's analysis only consumes link
// distance statistics — but it is a real geometric model: ranges, windows
// and their durations all come from propagated positions, not constants, so
// distance-sweep experiments (E6) and the live examples exercise genuine
// time-varying delay.
package orbit

import (
	"fmt"
	"math"
	"time"
)

// Physical constants (SI units).
const (
	EarthRadiusM = 6.371e6        // mean Earth radius [m]
	MuEarth      = 3.986004418e14 // gravitational parameter [m^3/s^2]
	LightSpeed   = 2.99792458e8   // [m/s]
)

// GrazingAltitudeM is the minimum altitude a line of sight may pass above
// the Earth's surface before atmosphere/terrain blocks it. Typical values
// are 50–100 km for optical links.
const GrazingAltitudeM = 80e3

// Vec3 is a Cartesian vector in the Earth-centered inertial frame, metres.
type Vec3 struct{ X, Y, Z float64 }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Dot returns the dot product.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Orbit is a circular orbit parameterized by altitude, inclination, right
// ascension of the ascending node (RAAN), and the satellite's phase angle
// along the orbit at epoch.
type Orbit struct {
	AltitudeM      float64 // altitude above EarthRadiusM [m]
	InclinationRad float64
	RAANRad        float64
	PhaseRad       float64 // argument of latitude at t=0
}

// Radius returns the orbital radius from Earth's centre.
func (o Orbit) Radius() float64 { return EarthRadiusM + o.AltitudeM }

// Period returns the orbital period.
func (o Orbit) Period() time.Duration {
	r := o.Radius()
	secs := 2 * math.Pi * math.Sqrt(r*r*r/MuEarth)
	return time.Duration(secs * float64(time.Second))
}

// MeanMotion returns the angular rate in rad/s.
func (o Orbit) MeanMotion() float64 {
	r := o.Radius()
	return math.Sqrt(MuEarth / (r * r * r))
}

// Position returns the ECI position at time t after epoch.
func (o Orbit) Position(t time.Duration) Vec3 { return o.Prepare().Position(t) }

// Prepared is an Orbit with its time-invariant terms — mean motion, radius,
// and the sines and cosines of inclination and RAAN — evaluated once, so a
// caller that samples one orbit many times pays two trigonometric calls per
// sample instead of six. Orbit.Position is Prepare().Position: there is one
// expression of the geometry, and the prepared form agrees with the
// unprepared one to the last bit.
type Prepared struct {
	phase, motion, radius  float64
	cosI, sinI, cosO, sinO float64
}

// Prepare evaluates the orbit's time-invariant terms.
func (o Orbit) Prepare() Prepared {
	return Prepared{
		phase:  o.PhaseRad,
		motion: o.MeanMotion(),
		radius: o.Radius(),
		cosI:   math.Cos(o.InclinationRad),
		sinI:   math.Sin(o.InclinationRad),
		cosO:   math.Cos(o.RAANRad),
		sinO:   math.Sin(o.RAANRad),
	}
}

// Position returns the ECI position at time t after epoch.
func (p Prepared) Position(t time.Duration) Vec3 {
	u := p.phase + p.motion*t.Seconds() // argument of latitude
	r := p.radius
	cosU, sinU := math.Cos(u), math.Sin(u)
	cosI, sinI := p.cosI, p.sinI
	cosO, sinO := p.cosO, p.sinO
	// Rotate the in-plane position (r cosU, r sinU, 0) by inclination about
	// x then RAAN about z.
	x := r * (cosO*cosU - sinO*sinU*cosI)
	y := r * (sinO*cosU + cosO*sinU*cosI)
	z := r * (sinU * sinI)
	return Vec3{x, y, z}
}

// Link is a prospective laser crosslink between two satellites.
type Link struct {
	A, B Orbit
}

// RangeM returns the inter-satellite distance at time t.
func (l Link) RangeM(t time.Duration) float64 { return l.Prepare().RangeM(t) }

// PreparedLink is a Link's two orbits in prepared form, for callers that
// sample the range once per frame (channel.OrbitDelay).
type PreparedLink struct{ a, b Prepared }

// Prepare evaluates both orbits' time-invariant terms.
func (l Link) Prepare() PreparedLink {
	return PreparedLink{a: l.A.Prepare(), b: l.B.Prepare()}
}

// RangeM returns the inter-satellite distance at time t, equal (==) to
// Link.RangeM.
func (l PreparedLink) RangeM(t time.Duration) float64 {
	return l.b.Position(t).Sub(l.a.Position(t)).Norm()
}

// Visible reports whether the two satellites have line of sight at t: the
// segment between them stays above EarthRadiusM+GrazingAltitudeM.
func (l Link) Visible(t time.Duration) bool {
	pa := l.A.Position(t)
	pb := l.B.Position(t)
	d := pb.Sub(pa)
	dd := d.Dot(d)
	if dd == 0 {
		return true
	}
	// Closest approach of the segment to the origin.
	s := -pa.Dot(d) / dd
	if s < 0 {
		s = 0
	} else if s > 1 {
		s = 1
	}
	closest := Vec3{pa.X + s*d.X, pa.Y + s*d.Y, pa.Z + s*d.Z}
	return closest.Norm() >= EarthRadiusM+GrazingAltitudeM
}

// PropagationDelay converts a range in metres to a one-way light-time.
func PropagationDelay(rangeM float64) time.Duration {
	return time.Duration(rangeM / LightSpeed * float64(time.Second))
}

// RangeForDelay inverts PropagationDelay.
func RangeForDelay(d time.Duration) float64 {
	return d.Seconds() * LightSpeed
}

// Window is one contiguous visibility interval.
type Window struct {
	Start, End time.Duration
}

// Duration returns the window length — the "link lifetime".
func (w Window) Duration() time.Duration { return w.End - w.Start }

// String formats the window for reports.
func (w Window) String() string {
	return fmt.Sprintf("[%v, %v] (%v)", w.Start, w.End, w.Duration())
}

// Windows scans [0, horizon] with the given step and returns the visibility
// windows, refining each edge by bisection to sub-step accuracy.
func (l Link) Windows(horizon, step time.Duration) []Window {
	if step <= 0 {
		panic("orbit: non-positive scan step")
	}
	var out []Window
	inWindow := l.Visible(0)
	var start time.Duration
	if inWindow {
		start = 0
	}
	for t := step; t <= horizon; t += step {
		v := l.Visible(t)
		if v == inWindow {
			continue
		}
		edge := l.bisect(t-step, t)
		if v {
			start = edge
		} else {
			out = append(out, Window{Start: start, End: edge})
		}
		inWindow = v
	}
	if inWindow {
		out = append(out, Window{Start: start, End: horizon})
	}
	return out
}

func (l Link) bisect(lo, hi time.Duration) time.Duration {
	vlo := l.Visible(lo)
	for hi-lo > time.Millisecond {
		mid := lo + (hi-lo)/2
		if l.Visible(mid) == vlo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// RangeStats summarizes R_t over a window, sampled at the given step. It
// feeds the HDLC timeout rule the paper quotes: t_out = R + α with
// α >= R_max − R and R = (R_min + R_max)/2.
type RangeStats struct {
	MinM, MaxM, MeanM float64
	VarM2             float64 // variance of range [m^2]
	Samples           int
}

// Stats samples the link range over w.
func (l Link) Stats(w Window, step time.Duration) RangeStats {
	if step <= 0 {
		panic("orbit: non-positive sampling step")
	}
	var st RangeStats
	st.MinM = math.Inf(1)
	st.MaxM = math.Inf(-1)
	var sum, sumSq float64
	for t := w.Start; t <= w.End; t += step {
		r := l.RangeM(t)
		if r < st.MinM {
			st.MinM = r
		}
		if r > st.MaxM {
			st.MaxM = r
		}
		sum += r
		sumSq += r * r
		st.Samples++
	}
	if st.Samples > 0 {
		st.MeanM = sum / float64(st.Samples)
		st.VarM2 = sumSq/float64(st.Samples) - st.MeanM*st.MeanM
		if st.VarM2 < 0 {
			st.VarM2 = 0
		}
	}
	return st
}

// MidrangeM returns (R_min + R_max)/2, the paper's choice of mean distance R.
func (st RangeStats) MidrangeM() float64 { return (st.MinM + st.MaxM) / 2 }

// AlphaM returns R_max − R_mid, the paper's lower bound for the timeout
// slack α (in metres of one-way range; convert with PropagationDelay).
func (st RangeStats) AlphaM() float64 { return st.MaxM - st.MidrangeM() }

// RoundTrip returns the round-trip light time for the midrange distance.
func (st RangeStats) RoundTrip() time.Duration {
	return 2 * PropagationDelay(st.MidrangeM())
}

// TimeoutAlpha returns the timeout slack α as a duration for round-trip
// accounting (twice the one-way slack, since t_out bounds a round trip).
func (st RangeStats) TimeoutAlpha() time.Duration {
	return 2 * PropagationDelay(st.AlphaM())
}

// CrossPlanePair returns a canonical two-satellite crosslink: satellites at
// the given altitude in planes separated by raanSepDeg degrees of RAAN with
// the given inclination and initial phase offset. It is the constellation
// cell the examples and distance sweeps use.
func CrossPlanePair(altitudeM, inclinationDeg, raanSepDeg, phaseOffsetDeg float64) Link {
	rad := math.Pi / 180
	return Link{
		A: Orbit{AltitudeM: altitudeM, InclinationRad: inclinationDeg * rad},
		B: Orbit{
			AltitudeM:      altitudeM,
			InclinationRad: inclinationDeg * rad,
			RAANRad:        raanSepDeg * rad,
			PhaseRad:       phaseOffsetDeg * rad,
		},
	}
}
