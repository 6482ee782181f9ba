package runner

import (
	"sync/atomic"

	"repro/internal/durable"
)

// syncPolicy is the process-wide durability policy for the memo cache's
// segment appends. It is process-wide for the same reason
// SetDefaultOptions is: cache entries are written deep inside experiment
// fan-outs, far from any flag parsing, and durability is an operator
// decision about the host (its storage, its power story), not about one
// sweep.
//
// The default is durable.PolicyOff: no fsync, so an entry survives a
// process crash (the page cache does) but maybe not power loss.
// cmd/mctd and cmd/paperbench raise it from their -fsync flags.
var syncPolicy atomic.Int32

// SetSyncPolicy installs the process-wide fsync policy for cache
// writes. Safe to call concurrently with writers; each write
// snapshots the policy once.
func SetSyncPolicy(p durable.Policy) { syncPolicy.Store(int32(p)) }

// SyncPolicy returns the current process-wide fsync policy.
func SyncPolicy() durable.Policy { return durable.Policy(syncPolicy.Load()) }

// writeSyncPolicy resolves the policy for one cache append: each entry
// is a batch boundary (its cell reports done once Memo returns), so
// PolicyData and PolicyAlways both mean "fsync this append"; only
// PolicyOff skips.
func writeSyncPolicy() durable.Policy {
	if p := SyncPolicy(); p != durable.PolicyOff {
		return durable.PolicyAlways
	}
	return durable.PolicyOff
}
