package cluster

// Metric names registered by the cluster layer. Single-sourced here so
// ggvet's telemetryname pass can hold the registration sites and the
// checked-in inventory (internal/telemetry/inventory.txt) to one set
// of spellings. All of them are registered only when a Cluster is
// built, so a single-node ggserved exposes no cluster.* plane at all.
const (
	// Fill protocol: results copied from the owning peer's cache
	// without simulating, and the misses that fell through to a
	// delegated run.
	MetricFills      = "cluster.fills"
	MetricFillMisses = "cluster.fill_misses"
	// MetricFillsServed counts fill requests this replica answered
	// from its own cache for a peer.
	MetricFillsServed = "cluster.fills_served"

	// Routing: jobs this replica handed to the key's owner, and jobs
	// the owner ran on a peer's behalf.
	MetricDelegated  = "cluster.delegated"
	MetricRemoteJobs = "cluster.remote_jobs"

	// Degraded paths: delegations abandoned because the owner died
	// mid-job (the requester resumes from the shared checkpoint dir)
	// or pushed back (queue full / draining; the requester runs the
	// job itself).
	MetricFailovers = "cluster.failovers"
	MetricSpills    = "cluster.spills"

	// MetricPeersConnected is the last health probe's count of
	// reachable peers.
	MetricPeersConnected = "cluster.peers.connected"
)
