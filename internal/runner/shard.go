package runner

// Sharding primitives: the (master, shard, trial) extension of the
// TrialSeeds contract (DESIGN.md §8). A sharded run partitions the global
// trial index space [0, total) into contiguous ranges, one per shard, and
// each shard derives the seeds of its local trial t from the *global*
// index lo+t — so the set of per-trial seed pairs executed across all
// shards is exactly the set a single-process run executes, for any shard
// count. Byte-identical reassembly then only requires concatenating shard
// results in shard order, which ShardRange's monotone ranges make the same
// as global trial order.

// ShardRange returns the contiguous global trial range [lo, hi) owned by
// shard index of shards over total trials: lo = index·total/shards,
// hi = (index+1)·total/shards. The ranges of indices 0..shards-1 partition
// [0, total) in order, sizes differ by at most one, and shards beyond the
// trial count receive empty ranges. ShardRange(total, 1, 0) is the whole
// range, so a single-shard run is literally the unsharded run.
func ShardRange(total, shards, index int) (lo, hi int) {
	return index * total / shards, (index + 1) * total / shards
}
