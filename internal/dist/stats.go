package dist

// Stats is the engine's accounting of one run. All quantities are
// deterministic functions of (Config, protocol): two runs with the same
// configuration produce identical Stats.
type Stats struct {
	// Rounds is the number of synchronous rounds executed: for protocols
	// whose vertices only yield, the maximum number of yields made by any
	// vertex.
	Rounds int
	// Messages is the total number of payloads sent.
	Messages int64
	// TotalBits is the total metered size of all payloads.
	TotalBits int64
	// MaxMessageBits is the size of the largest single payload — the
	// LOCAL-vs-CONGEST telltale for individual messages.
	MaxMessageBits int
	// MaxEdgeRoundBits is the maximum number of bits carried by one
	// directed edge in one round: the quantity the CONGEST model bounds
	// by O(log n).
	MaxEdgeRoundBits int
	// CutBits is the total bits crossing the Config.CutSide partition;
	// zero when no cut was configured. This is the measurable quantity
	// behind the paper's two-party simulation lower bounds.
	CutBits int64
	// ActiveSteps is the total number of vertex steps over all completed
	// rounds: each round contributes the number of vertices that ran
	// during it (ended the round by yielding, parking, or retiring). A
	// protocol where every vertex yields every round has ActiveSteps ≈
	// Rounds × n; an activity-aware protocol whose idle vertices park has
	// ActiveSteps ≈ Σ_r #active(r) — the quantity the step engine's round
	// cost is proportional to. ActiveSteps/Rounds is the mean
	// active-vertex count per round.
	ActiveSteps int64
	// ParkedSteps is the sum over completed rounds of the number of
	// vertices parked when the round's deliveries were out (a vertex
	// woken by a delivery counts as active, not parked, in that round).
	// ParkedSteps/Rounds is the mean parked-vertex count per round;
	// parked vertices cost the step engine nothing.
	ParkedSteps int64
	// PeakActive is the maximum single-round active-vertex count.
	PeakActive int
}

// RoundActivity is the per-round activity snapshot passed to
// Config.OnRound (and Tracer.Phase) after each completed round. Every
// field is a deterministic function of (Config.Graph, Config.Seed,
// protocol) and independent of the step-shard width and the shard count
// — the chaos and transport-conformance tests assert this, and the
// snapshot is part of the logical transcript that trace.Digest hashes.
// Field by field:
//
//   - Round: deterministic; rounds complete in the same order and count
//     in every run.
//   - Active, Parked, Senders: deterministic; which vertices yield,
//     park, or send in a round depends only on delivered messages and
//     per-vertex RNG streams, never on scheduling.
//   - Delivered, DeliveredBits: deterministic when computed. They are
//     only accumulated when Config.OnRound or Config.Tracer is set
//     (delivery-side accounting re-sizes each payload, a cost the bare
//     hot path must not pay) and read as zero otherwise.
type RoundActivity struct {
	// Round is the 1-based number of the round that just completed.
	Round int
	// Active is the number of vertices that ran during the round: they
	// ended it by yielding, parking, or retiring.
	Active int
	// Parked is the number of vertices still parked after the round's
	// deliveries (woken receivers count as active next round).
	Parked int
	// Senders is the number of vertices that committed at least one send
	// this round.
	Senders int
	// Delivered is the number of payloads the round's routing placed in
	// live inboxes — sends to already-retired vertices are metered in
	// Stats but not delivered, so Delivered <= the round's share of
	// Stats.Messages. Zero unless OnRound or Tracer is configured.
	Delivered int
	// DeliveredBits is the total metered size of the Delivered payloads.
	// Zero unless OnRound or Tracer is configured.
	DeliveredBits int64
}

// CongestCompatible reports whether every directed edge stayed within
// budget bits in every round — i.e. whether the run was a legal CONGEST
// execution for that bandwidth.
func (s Stats) CongestCompatible(budget int) bool {
	return s.MaxEdgeRoundBits <= budget
}

// IDBits returns the number of bits needed to name one of n vertices:
// ceil(log2 n), and at least 1. It is the "word" unit of CONGEST
// accounting; the conventional CONGEST budget is O(1) words of IDBits(n)
// bits per edge per round.
func IDBits(n int) int {
	b := 1
	for v := 2; v < n; v <<= 1 {
		b++
	}
	return b
}
