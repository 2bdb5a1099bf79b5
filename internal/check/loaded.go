// Load-time verification: the persistent cache tier's trust boundary.
//
// Schedules that come back from disk have survived a checksum, but a
// checksum only proves "these are the bytes that were written" — it cannot
// prove the bytes were right when written, that the store's key still maps
// to this scheduling problem, or that a tampered file was not re-framed
// with a fresh checksum. Verifier.VerifyLoaded therefore re-runs the full
// translation-validation pipeline over a deserialized schedule set exactly
// as if the schedules had just been produced by an untrusted scheduler:
// nothing restored from disk is ever served on the strength of its
// checksum alone.
package check

import (
	"doacross/internal/core"
	"doacross/internal/diag"
)

// VerifyLoaded verifies a schedule set deserialized from the persistent
// tier before it may re-enter service: the list and sync schedules pass the
// full independent verification (Verify: shape, dependence order, both
// synchronization conditions, resource feasibility, deadlock freedom,
// LBD/LFD agreement), and the set's recorded simulated time for the served
// (sync) schedule passes the timing audit (VerifyTiming) at the recorded
// trip count. An empty Errors() set means the restored entry is as
// trustworthy as a freshly computed one; any error means the bytes must be
// quarantined, not served. Schedules of the verifier's program share its
// edges, so every entry of one loop restored in a load pass shares one
// derivation.
//
// Like Verify, VerifyLoaded never panics, whatever shape the deserialized
// schedules are in — it is safe on adversarially mutated inputs.
func (v *Verifier) VerifyLoaded(list, sync *core.Schedule, syncTime, n int) diag.List {
	if sync == nil {
		return diag.List{diag.Errorf(Stage, diag.Pos{},
			"loaded entry has no synchronization-aware schedule")}
	}
	var out diag.List
	for _, s := range []*core.Schedule{list, sync} {
		if s != nil {
			out = append(out, v.Verify(s)...)
		}
	}
	if Err(out) == nil {
		out = append(out, VerifyTiming(sync, syncTime, n)...)
	}
	return out
}
