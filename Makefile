GO ?= go
# Seeds per chaos sweep; CI's PR job uses 5.
CHAOS_SEEDS ?= 20

.PHONY: check build cross fmt-check wait-check atomic-check vet dpr-vet test bench-module loc race commit-path-stress fuzz bench bench-scaling bench-serve-path chaos figures

# The full pre-commit gate, in the order CI runs it.
check: build cross fmt-check wait-check atomic-check vet dpr-vet test bench-module

build:
	$(GO) build ./...

# The files only other systems compile: hrtimer's fallback, and kv's heap
# slabs (also what -race builds, which CI's race job covers).
cross:
	GOOS=darwin $(GO) build ./... && GOOS=windows $(GO) build ./...

# gofmt over every tracked Go file; any name printed is a failure.
fmt-check:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# A sub-millisecond wait goes through internal/hrtimer: a runtime timer that
# short fires at the runtime's next unrelated wake-up, up to a millisecond
# late in an idle process (DESIGN.md "Commit rounds", Waits). A grep, not a
# dpr-vet checker: it looks for a Microsecond or Nanosecond constant handed to
# package time's waits, outside tests, the fault harnesses (chaos,
# integration), the baselines and dpr-vet's fixtures.
wait-check:
	@out=$$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' \
			-e '^internal/\(analysis\|chaos\|integration\|baseline\)/' \
		| xargs grep -nE 'time\.(Sleep|After|AfterFunc|NewTimer)\(.*(Microsecond|Nanosecond)'); \
		if [ -n "$$out" ]; then echo "sub-millisecond wait on package time (use internal/hrtimer):"; echo "$$out"; exit 1; fi

# A value accessed atomically has a sync/atomic type (atomic.Uint64,
# atomic.Pointer[T], ...), so the compiler refuses a plain access and `go vet`
# (copylocks) a copy. Two shapes get past both, and the tree has none of
# either: a free function on an address (atomic.AddUint64(&x.n, 1) — the
# field's type no longer says it is atomic, so a plain x.n elsewhere compiles)
# and a wrapper overwritten with a zero literal (x.n = atomic.Uint64{} — vet
# exempts composite literals). internal/analysis's TestAtomicGrepRules holds
# these two patterns to its atomicbad fixture.
atomic-check:
	@out=$$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '^internal/analysis/testdata/' \
		| xargs grep -nE -e 'atomic\.(Load|Store|Add|Swap|CompareAndSwap|And|Or)[A-Z][A-Za-z0-9]*\(&' \
			-e '[^:]= *atomic\.(Bool|Int32|Int64|Uint32|Uint64|Uintptr|Value|Pointer\[.*\])\{\}'); \
		if [ -n "$$out" ]; then echo "sync/atomic free function or zero-literal overwrite (use the typed wrappers' methods):"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own static-analysis suite, five checkers: mutex-discipline
# (release and order, per function), cut-worldline, decode-bounds,
# epoch-discipline (Enter/Exit pairing, no blocking while entered) and
# lock-order-global (whole program). The //dpr:noalloc functions are held by
# the Test…ZeroAlloc pins, whose coverage TestNoAllocPinsCover gates in `test`.
dpr-vet:
	$(GO) run ./cmd/dpr-vet ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own (replace dpr => ../) that `go build ./...`
# at the root never compiles; it links against the worker constructors, so
# build and test it whenever they move.
bench-module:
	cd benchmark && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test -short .

# The paper's figures and ablations (§7), each printed as the table
# EXPERIMENTS.md quotes; every figure table there names this target. The
# default is the quick pass; e.g. FIGS='-duration 2s fig17 fig18' for two
# figures at full length. `go run ./cmd/dpr-bench -h` lists the figures.
FIGS ?= -short all
figures:
	$(GO) run ./cmd/dpr-bench $(FIGS)

# Non-test Go lines outside benchmark/, per package and in total — ROADMAP's
# "net line count is a reported metric".
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/?[^\/]*$$/, "", d); loc[d == "" ? "." : d] += $$1; sum += $$1 } \
			END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d total\n", sum }' | sort -k2

race:
	$(GO) test -race ./...

# The commit path's interleaving- and timing-sensitive tests — kv seals and
# torn-seal recovery, single-flight group commit and the persist observer, the
# pinned checkpoint-record layout and the device holding only the log and its
# two record slots after seals, a failed seal and a rollback; every store's
# side of the commit contract (libdpr/statetest: kv, D-Redis, whose persist
# notification order carries the pump's guarantee, and the two test doubles);
# the libdpr commit pump and commit rounds (two workers closing a version
# together; the finder's announced version), heartbeat backstop and WaitCommit;
# D-Redis commits, version fast-forward and a failed BGSAVE;
# log compaction (its liveness rule, a pass yielding to a commit and to a
# rollback, the log staying bounded under load: -short runs that one for 3 s
# instead of 30), the serving frame's (backend conformance, Stop) and the
# client's batch lifecycle (every transition against scripted workers;
# operations lost to severed, blackholed, restarted and co-located workers;
# the fault proxy those use), hrtimer's two legs and the device model's
# completion path, the epoch table (drains against stragglers, beside busy
# neighbours and on one processor) and world-line admission waking on Advance
# (internal/core TestWorldLine*), and the recovery round — an interleaving
# between BeginRecovery's generation bump and each worker's watch loop, which
# is the only thing that rolls a worker back: internal/cluster's round tests
# (one resumes at its ack bound past a worker that cannot restore), libdpr's
# heal tests (a restore that fails, a second rollback into one world-line) and
# the chaos checker's injected skipped rollback; the metadata store's
# recovery, ack and watch tests and its snapshots (members, owners and acks
# read under one lock: TestRecoveryFreezesCut, TestRecoveredCutNamesEveryMember,
# TestWaitState*, TestSnapshot*); and the session's and the
# gate's owners beside the goroutines that hand them work (libdpr's
# TestOwnerSession*, TestGateMoves*, TestGateSweep*, TestDrainWaitsOneBatch,
# TestNextBatchNever*; TestTimersUnderSynchronousChannels runs the waits under
# Go 1.23's timer channels) — twenty times each
# under the race detector, on one processor and on two. A -run list that
# matches nothing (a renamed test) fails the target instead of passing
# vacuously.
commit-path-stress:
	@set -e; run() { \
		out=$$($(GO) test -race -count=20 -cpu 1,2 -timeout 20m $$3 -run "$$1" "$$2" 2>&1) || { echo "$$out"; exit 1; }; \
		echo "$$out"; \
		if echo "$$out" | grep -q 'no tests to run'; then echo "commit-path-stress: -run '$$1' matched no test in $$2"; exit 1; fi; \
	}; \
	run '.' ./internal/hrtimer; \
	run '.' ./internal/epoch; \
	run 'TestWorldLine' ./internal/core; \
	run 'TestWriteAfterClose|TestLocalSSDCompletesOnTime|TestMemDeviceAsyncCompletion|TestSinkDeviceLatency' ./internal/storage; \
	run 'Seal|TornSeal|SingleSlot|RecordSurvives|OlderIncarnation|RecoverUnderReadFaults|RecoverReadFault|StorageFailure|GroupCommit|OnPersist|CheckpointRecord|SealLeaves|StateObjectContract' ./internal/kv; \
	run 'Compact' ./internal/kv -short; \
	run 'TestPump|TestFailedSeal|TestSlowSeal|TestForcedSeal|TestFollowUpSeal|TestStateObjectContract|TestCommitPump|TestHeartbeatBackstop|TestWaitCommit|TestWorkerEffectiveIntervals|TestRound|TestIdleWorkerDoesNotJoin|TestSlowPeer|TestLostAnnouncement|TestPumpDeadline|TestCutView|TestWorkerRollback|TestOwnerSession|TestGateMoves|TestGateSweep|TestDrainWaitsOneBatch|TestParkedBatch|TestHandOffMerges|TestNextBatchNever|TestTimersUnderSynchronousChannels' ./internal/libdpr; \
	run '.' ./internal/cluster; \
	run 'TestChaosCheckerCatchesViolation$$' ./internal/chaos; \
	run 'TestAnnouncement|TestRecoveryFreezesCut|TestRecoveredCutNamesEveryMember|TestWaitState|TestSnapshot' ./internal/metadata; \
	run 'TestDRedisCommit|TestDRedisVersionFastForward|TestDRedisCutAdvancePush|TestStateObjectContract|TestFailedSaveEndsTheSeal' ./internal/dredis; \
	run 'TestConformance|TestStop|TestStateObjectContract' ./internal/serve; \
	run 'TestBatchLifecycle|TestSettledBatch|TestStrandedReads|TestLostOp|TestUnreachableWorker|TestColocatedReject|TestColocatedPendingRead|TestRestartedWorker' ./internal/dfaster; \
	run 'TestFaultProxyBlackhole' ./internal/wire

# The decoders of bytes a worker takes from outside: the wire frames and the
# kv checkpoint record read back from the device. Each target replays its seed
# corpus (internal/wire's checked-in one too) and mutates for a few seconds.
# CI's fuzz job runs this target, so this list is the only one.
fuzz:
	@set -e; for t in ./internal/wire:FuzzDecodeBatchRequest ./internal/wire:FuzzDecodeBatchReply \
			./internal/wire:FuzzDecodeError ./internal/wire:FuzzDecodeCutAdvance \
			./internal/kv:FuzzDecodeCheckpoint; do \
		echo "fuzz $$t"; \
		$(GO) test "$${t%%:*}" -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 10s; \
	done

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# The multi-core scaling curve: the full networked serve pipeline at 1, 2,
# 4, and 8 cores. With the sharded epoch-protected index and per-lane
# rollback fence there is no cross-connection lock on the serve path, so
# throughput should scale with cores up to the host's physical core count
# (compare ops/s across the -cpu column; allocs/op must stay 0 throughout).
bench-scaling:
	$(GO) test -bench 'ServeBatch$$' -cpu 1,2,4,8 -benchmem -run '^$$' -benchtime 2s ./internal/dfaster

# The operation path in pieces, each small enough to resolve 100 ns: the
# server half of a co-located operation (ExecuteLocalScratch, no TCP, no
# session; commit pump on and off: ~140-330 ns on the 2-core reference host,
# with its phase), the whole co-located operation through the client
# (ClientLocal: one Client.Read, the server half plus routing, session and
# callback), the session's bookkeeping (NextBatch + CompleteBatch at b = 1
# and 64, the cut moving every 1 000 batches), and the client's remote path
# (enqueue, transmit, settle against an in-process worker that only
# answers), and the kv operation at the end-to-end benchmark's load
# (ReadLoaded, UpsertLoaded: 131 072 keys in 1<<16 buckets; records/op is
# the chain walk's length). Every line must report 0 allocs/op.
bench-serve-path:
	$(GO) test -bench 'ExecuteLocal$$|ClientLocal$$|ClientEnqueueSettle$$' -benchmem -run '^$$' ./internal/dfaster
	$(GO) test -bench 'SessionBatch$$' -benchmem -run '^$$' ./internal/libdpr
	$(GO) test -bench 'ReadLoaded$$|UpsertLoaded$$' -benchmem -run '^$$' ./internal/kv

# Default chaos sweep: the seed-derived fault schedules (worker kill/restart,
# connection and storage faults, metadata latency) under the race detector.
# On the Null device the commit pump seals every few hundred microseconds, so
# nearly every checkpoint is an incremental one and worker kills land inside
# the seal→report window. Reproduce one seed with:
#   CHAOS_SEED=<seed> go test ./internal/chaos -race -run 'TestChaos$'
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test ./internal/chaos -race \
		-run 'TestChaos$$' -timeout 40m -v
