package hdlc

import "repro/internal/metrics"

// Registry-backed observability instruments, mirroring the lamsdlc layout:
// arq.Metrics stays the experiment-aggregate channel, the registry is what
// snapshots and /metrics read. All instruments are nil with a nil registry,
// making every increment a no-op.
type senderInstr struct {
	firstTx       *metrics.Counter   // hdlc_iframes_first_tx_total
	retx          *metrics.Counter   // hdlc_iframes_retx_total (all causes)
	timeoutPolls  *metrics.Counter   // hdlc_timeout_polls_total: T1 expiry resends
	srejRetx      *metrics.Counter   // hdlc_srej_retx_total
	rejRetx       *metrics.Counter   // hdlc_rej_retx_total: Go-Back-N back-up resends
	stutterRetx   *metrics.Counter   // hdlc_stutter_retx_total: idle-wire repeats
	rrHeard       *metrics.Counter   // hdlc_rr_heard_total: non-stale RRs applied
	implausibleRR *metrics.Counter   // hdlc_implausible_rr_total: RRs refused for N(R) above nextSeq
	releases      *metrics.Counter   // hdlc_releases_total: frames cumulatively acked
	failures      *metrics.Counter   // hdlc_failures_total: N2 retry exhaustion
	outstanding   *metrics.Gauge     // hdlc_send_outstanding
	holdingNS     *metrics.Histogram // hdlc_holding_time_ns
}

func newSenderInstr(reg *metrics.Registry) senderInstr {
	return senderInstr{
		firstTx:       reg.Counter("hdlc_iframes_first_tx_total"),
		retx:          reg.Counter("hdlc_iframes_retx_total"),
		timeoutPolls:  reg.Counter("hdlc_timeout_polls_total"),
		srejRetx:      reg.Counter("hdlc_srej_retx_total"),
		rejRetx:       reg.Counter("hdlc_rej_retx_total"),
		stutterRetx:   reg.Counter("hdlc_stutter_retx_total"),
		rrHeard:       reg.Counter("hdlc_rr_heard_total"),
		implausibleRR: reg.Counter("hdlc_implausible_rr_total"),
		releases:      reg.Counter("hdlc_releases_total"),
		failures:      reg.Counter("hdlc_failures_total"),
		outstanding:   reg.Gauge("hdlc_send_outstanding"),
		holdingNS:     reg.Histogram("hdlc_holding_time_ns", holdingBuckets),
	}
}

// holdingBuckets is computed once: a constellation builds thousands of
// senders, most against a nil registry that would discard a fresh slice each.
var holdingBuckets = metrics.ExpBuckets(1e5, 2, 24)

type receiverInstr struct {
	rrSent    *metrics.Counter // hdlc_rr_sent_total
	srejSent  *metrics.Counter // hdlc_srej_sent_total
	rejSent   *metrics.Counter // hdlc_rej_sent_total
	delivered *metrics.Counter // hdlc_delivered_total
	dups      *metrics.Counter // hdlc_dup_discarded_total: below-base duplicates
	held      *metrics.Gauge   // hdlc_held_frames: out-of-order buffer occupancy
}

func newReceiverInstr(reg *metrics.Registry) receiverInstr {
	return receiverInstr{
		rrSent:    reg.Counter("hdlc_rr_sent_total"),
		srejSent:  reg.Counter("hdlc_srej_sent_total"),
		rejSent:   reg.Counter("hdlc_rej_sent_total"),
		delivered: reg.Counter("hdlc_delivered_total"),
		dups:      reg.Counter("hdlc_dup_discarded_total"),
		held:      reg.Gauge("hdlc_held_frames"),
	}
}
