package runner

import "testing"

func TestShardRangePartitions(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 8, 100, 1000} {
		for _, shards := range []int{1, 2, 3, 5, 8, 16} {
			next := 0
			minSize, maxSize := total, 0
			for i := 0; i < shards; i++ {
				lo, hi := ShardRange(total, shards, i)
				if lo != next {
					t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d (contiguous)", total, shards, i, lo, next)
				}
				if hi < lo {
					t.Fatalf("total=%d shards=%d: shard %d has hi=%d < lo=%d", total, shards, i, hi, lo)
				}
				size := hi - lo
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d shards=%d: shards cover [0, %d), want [0, %d)", total, shards, next, total)
			}
			if maxSize-minSize > 1 && total >= shards {
				t.Errorf("total=%d shards=%d: shard sizes range [%d, %d], want balanced within 1", total, shards, minSize, maxSize)
			}
		}
	}
}

func TestShardRangeSingleShardIsWholeRange(t *testing.T) {
	lo, hi := ShardRange(42, 1, 0)
	if lo != 0 || hi != 42 {
		t.Errorf("ShardRange(42, 1, 0) = [%d, %d), want [0, 42)", lo, hi)
	}
}
