// Test-only fault-injection seam. Production runs never install hooks,
// so the round loop pays exactly one nil check per hook site (a
// package-level pointer load); internal/faults installs a TestHooks to
// stall workers, fail handlers at chosen (node, round) coordinates, and
// observe round barriers without the engine carrying any test logic.
package engine

import "github.com/paper-repo-growth/doryp20/internal/core"

// TestHooks is the set of fault-injection points the engine exposes to
// tests (see internal/faults). Every field is optional; a nil hook
// costs nothing at its call site beyond the nil check.
type TestHooks struct {
	// BarrierEnter fires at the top of every round barrier, before the
	// cancellation check and the round's phases, with the round about to
	// execute. Fault plans use it to count rounds and to stall the run
	// loop at a precise barrier.
	BarrierEnter func(r core.Round)
	// NodeError fires before each node handler; returning a non-nil
	// error replaces the handler call and fails the run exactly as a
	// handler error would.
	NodeError func(id core.NodeID, r core.Round) error
	// WorkerPhase fires on each worker goroutine as it picks up a phase
	// command (phase 0 = node handlers, phase 1 = scatter, phase 2 =
	// replay-digest hashing) — a stall point inside the parallel phases
	// themselves.
	WorkerPhase func(worker, phase int)
}

// testHooks is the installed hook set; nil in production.
var testHooks *TestHooks

// SetTestHooks installs (or, with nil, removes) the fault-injection
// hooks. Test-only: it must not be called while any engine is running,
// and tests that install hooks must remove them before finishing.
func SetTestHooks(h *TestHooks) { testHooks = h }
