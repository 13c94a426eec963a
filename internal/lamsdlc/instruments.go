package lamsdlc

import "repro/internal/metrics"

// Registry-backed observability instruments for the two protocol halves.
// They run alongside the arq.Metrics experiment aggregates — arq.Metrics is
// what the bench harness reduces into RunResults, the registry is what
// snapshots, /metrics scrapes, and cross-layer reconciliation read — and a
// test (internal/bench) asserts the two stay consistent. All instruments
// are nil with a nil registry, which makes every increment a no-op.
//
// Histogram unit convention: *_ns instruments record virtual-time
// durations in nanoseconds.
// Bucket bounds are computed once (spanBuckets, nsBuckets): a constellation
// builds thousands of endpoints, most against a nil registry that would
// discard a fresh slice each.
type senderInstr struct {
	firstTx       *metrics.Counter   // lams_iframes_first_tx_total
	retx          *metrics.Counter   // lams_iframes_retx_total (all causes)
	retxNAK       *metrics.Counter   // lams_retx_nak_total: checkpoint NAK named the frame
	retxCoverage  *metrics.Counter   // lams_retx_coverage_total: watermark release unsafe (report chain broken)
	retxEnforced  *metrics.Counter   // lams_retx_enforced_total: enforced recovery resend
	retxResolving *metrics.Counter   // lams_retx_resolving_total: resolving-period timeout
	cpHeard       *metrics.Counter   // lams_checkpoints_heard_total
	naksHeard     *metrics.Counter   // lams_cp_naks_heard_total: NAK entries in heard checkpoints
	reqNAKs       *metrics.Counter   // lams_request_naks_sent_total
	recoveries    *metrics.Counter   // lams_enforced_recoveries_total
	enforcedHeard *metrics.Counter   // lams_enforced_naks_heard_total
	failures      *metrics.Counter   // lams_link_failures_total
	releases      *metrics.Counter   // lams_releases_total: frames positively released
	rateChanges   *metrics.Counter   // lams_rate_changes_total: Stop-Go rate adjustments
	implausibleCp *metrics.Counter   // lams_implausible_cp_total: checkpoint watermarks distrusted for exceeding nextSeq
	rateFraction  *metrics.Gauge     // lams_send_rate_fraction
	outstanding   *metrics.Gauge     // lams_send_outstanding
	liveSpan      *metrics.Histogram // lams_resolving_span: live seq span per checkpoint
	holdingNS     *metrics.Histogram // lams_holding_time_ns
}

func newSenderInstr(reg *metrics.Registry) senderInstr {
	return senderInstr{
		firstTx:       reg.Counter("lams_iframes_first_tx_total"),
		retx:          reg.Counter("lams_iframes_retx_total"),
		retxNAK:       reg.Counter("lams_retx_nak_total"),
		retxCoverage:  reg.Counter("lams_retx_coverage_total"),
		retxEnforced:  reg.Counter("lams_retx_enforced_total"),
		retxResolving: reg.Counter("lams_retx_resolving_total"),
		cpHeard:       reg.Counter("lams_checkpoints_heard_total"),
		naksHeard:     reg.Counter("lams_cp_naks_heard_total"),
		reqNAKs:       reg.Counter("lams_request_naks_sent_total"),
		recoveries:    reg.Counter("lams_enforced_recoveries_total"),
		enforcedHeard: reg.Counter("lams_enforced_naks_heard_total"),
		failures:      reg.Counter("lams_link_failures_total"),
		releases:      reg.Counter("lams_releases_total"),
		rateChanges:   reg.Counter("lams_rate_changes_total"),
		implausibleCp: reg.Counter("lams_implausible_cp_total"),
		rateFraction:  reg.Gauge("lams_send_rate_fraction"),
		outstanding:   reg.Gauge("lams_send_outstanding"),
		liveSpan:      reg.Histogram("lams_resolving_span", spanBuckets),
		holdingNS:     reg.Histogram("lams_holding_time_ns", nsBuckets),
	}
}

var spanBuckets, nsBuckets = metrics.ExpBuckets(1, 2, 16), metrics.ExpBuckets(1e5, 2, 24)

type receiverInstr struct {
	checkpoints    *metrics.Counter   // lams_checkpoints_sent_total
	naksReported   *metrics.Counter   // lams_cp_naks_reported_total: NAK entries in emitted checkpoints
	enforcedSent   *metrics.Counter   // lams_enforced_naks_sent_total
	reqNAKsHeard   *metrics.Counter   // lams_request_naks_heard_total
	gaps           *metrics.Counter   // lams_gaps_detected_total: missing seqs found
	implausibleSeq *metrics.Counter   // lams_implausible_seq_total: I-frames discarded for a seq jump beyond MaxSeqJump
	dropped        *metrics.Counter   // lams_recv_dropped_total: receive-buffer overflow discards
	dups           *metrics.Counter   // lams_dup_suppressed_total
	delivered      *metrics.Counter   // lams_delivered_total
	stopGoFlips    *metrics.Counter   // lams_stopgo_transitions_total
	queueLen       *metrics.Gauge     // lams_recv_queue_len
	cpSpacingNS    *metrics.Histogram // lams_checkpoint_spacing_ns
}

func newReceiverInstr(reg *metrics.Registry) receiverInstr {
	return receiverInstr{
		checkpoints:    reg.Counter("lams_checkpoints_sent_total"),
		naksReported:   reg.Counter("lams_cp_naks_reported_total"),
		enforcedSent:   reg.Counter("lams_enforced_naks_sent_total"),
		reqNAKsHeard:   reg.Counter("lams_request_naks_heard_total"),
		gaps:           reg.Counter("lams_gaps_detected_total"),
		implausibleSeq: reg.Counter("lams_implausible_seq_total"),
		dropped:        reg.Counter("lams_recv_dropped_total"),
		dups:           reg.Counter("lams_dup_suppressed_total"),
		delivered:      reg.Counter("lams_delivered_total"),
		stopGoFlips:    reg.Counter("lams_stopgo_transitions_total"),
		queueLen:       reg.Gauge("lams_recv_queue_len"),
		cpSpacingNS:    reg.Histogram("lams_checkpoint_spacing_ns", nsBuckets),
	}
}
