package obs

// DPRState is the JSON document served on /debug/dpr: one worker's (or the
// finder's) live view of the DPR protocol, plus its recent trace. Fields a
// component does not track are zero and omitted where tagged. dpr-cli's
// `obs` subcommand decodes this to render the one-screen cluster view, and
// the chaos harness dumps it next to a failing seed.
type DPRState struct {
	Worker uint64 `json:"worker,omitempty"`
	// Kind is the serving stack flavor: "dfaster", "dredis", or "finder".
	Kind      string `json:"kind"`
	WorldLine uint64 `json:"world_line"`
	// CurrentVersion is the version new operations execute in.
	CurrentVersion uint64 `json:"current_version,omitempty"`
	// PersistedVersion is the newest locally durable version.
	PersistedVersion uint64 `json:"persisted_version,omitempty"`
	// CommittedVersion is this worker's position in its view of the DPR cut.
	CommittedVersion uint64 `json:"committed_version,omitempty"`
	// CutMax is the largest position in the cut (the fastest worker);
	// CutLag is CutMax - CommittedVersion, how far this worker trails it.
	CutMax uint64 `json:"cut_max,omitempty"`
	CutLag uint64 `json:"cut_lag,omitempty"`
	// Cut is the full cut view, keyed by decimal worker id.
	Cut map[string]uint64 `json:"cut,omitempty"`
	// Vmax is the largest version any worker has closed or persisted, and
	// Closing the largest one announced as closing on this world-line — above
	// the persisted maximum while a commit round is under way (finder only).
	Vmax    uint64 `json:"vmax,omitempty"`
	Closing uint64 `json:"closing_version,omitempty"`
	// Frozen reports whether DPR progress is halted for recovery (finder).
	Frozen bool `json:"frozen,omitempty"`
	// Members is the membership table (finder only).
	Members map[string]string `json:"members,omitempty"`
	// Owners is the ownership table, partition (decimal) → worker id
	// (finder only).
	Owners map[string]uint64 `json:"owners,omitempty"`

	// CheckpointIntervalMS is the worker's heartbeat behind the commit pump
	// and CommitPump is "adaptive" — seal when dirty and idle, otherwise
	// leave a gap after a seal of three times what it took; both are absent
	// on a manual-commit worker. CommitGapMS is the gap that rule currently
	// yields: with the dpr_seal_seconds histogram, why the commit cadence is
	// what it is. RoundsInitiated counts the commits this worker started that
	// closed a version no worker had closed before, RoundsJoined the ones that
	// closed a version a peer already had. MetaWatch says cut changes stream
	// in via the finder long-poll: true on every worker, since there is no
	// other way.
	CheckpointIntervalMS float64 `json:"checkpoint_interval_ms,omitempty"`
	CommitPump           string  `json:"commit_pump,omitempty"`
	CommitGapMS          float64 `json:"commit_gap_ms,omitempty"`
	RoundsInitiated      uint64  `json:"rounds_initiated,omitempty"`
	RoundsJoined         uint64  `json:"rounds_joined,omitempty"`
	MetaWatch            bool    `json:"meta_watch,omitempty"`

	Sessions        int    `json:"sessions,omitempty"`
	OwnedPartitions int    `json:"owned_partitions,omitempty"`
	Rollbacks       uint64 `json:"rollbacks,omitempty"`
	RejectedBatches uint64 `json:"rejected_batches,omitempty"`
	StaleBatches    uint64 `json:"stale_batches,omitempty"`
	Batches         uint64 `json:"batches,omitempty"`
	Ops             uint64 `json:"ops,omitempty"`
	// RefreshAgeSeconds is the time since the worker last refreshed the cut
	// and world-line from the finder.
	RefreshAgeSeconds float64 `json:"refresh_age_seconds,omitempty"`

	// Log is the store's HybridLog, on workers whose store has one (dfaster).
	Log *LogState `json:"log,omitempty"`

	Trace []Event `json:"trace,omitempty"`
}

// LogState answers "why is memory growing": the HybridLog's four boundaries
// (addresses below Begin are reclaimed, [Head, Tail) is resident, [ReadOnly,
// Tail) is updated in place), the committed version compaction is held to —
// nothing above it is garbage yet — the resident size at which the store's
// compactor starts its next cycle, and the slab bytes backed by memory. The
// hash index's chains in use and its full buckets (IndexFullLines: all eight
// entries of the cache line in use) say whether the index is sized for the
// keys it holds.
type LogState struct {
	Begin          int64  `json:"begin"`
	Head           int64  `json:"head"`
	ReadOnly       int64  `json:"read_only"`
	Tail           int64  `json:"tail"`
	Committed      uint64 `json:"committed"`
	CompactTrigger int64  `json:"compact_trigger"`
	Mapped         int64  `json:"mapped"`
	IndexChains    int64  `json:"index_chains"`
	IndexFullLines int64  `json:"index_full_lines"`
}
