package exp

// RunSource says how one completed run was obtained, from the
// perspective of the caller that asked for it. It rides the typed
// event stream of the numagpud service (run_done events) and the
// Options.OnResult and Runner.Session callbacks. Over one RunAll
// sweep the sources partition its unique keys by the work each took:
// SourceCached and SourceCoalesced keys cost the sweep nothing new
// (counted in Stats.DeltaHits and Stats.CoalescedKeys), and only
// SourceSimulated and SourceRemote keys executed.
type RunSource string

const (
	// SourceSimulated: the run executed the local simulator.
	SourceSimulated RunSource = "simulated"
	// SourceCached: the run was resolved without new work — from the
	// second-level cache, or from a memo entry another caller had
	// already completed.
	SourceCached RunSource = "cached"
	// SourceRemote: the run executed on Options.Backend (e.g. the
	// numagpud sweep fabric).
	SourceRemote RunSource = "remote"
	// SourceCoalesced: the caller blocked on — and shares the result
	// of — an execution another caller already had in flight.
	SourceCoalesced RunSource = "coalesced"
)
