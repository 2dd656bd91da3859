package shard

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fadingcr/internal/experiments"
)

func quickRequest(shards int) Request {
	return Request{
		Spec:   experiments.Spec{IDs: "E5", Quick: true, Trials: 2, Seed: 9},
		Shards: shards,
	}
}

func TestRequestHashNormalizesDefaults(t *testing.T) {
	implicit := Request{Spec: experiments.Spec{Seed: 1}, Shards: 2}
	explicit := Request{Spec: experiments.Spec{IDs: "all", Seed: 1}, Shards: 2}
	if RequestHash(implicit) != RequestHash(explicit) {
		t.Error("equivalent requests hash differently")
	}
}

func TestRequestHashDistinguishesRuns(t *testing.T) {
	base := quickRequest(2)
	seen := map[string]string{RequestHash(base): "base"}
	variants := map[string]Request{}
	r := quickRequest(2)
	r.Spec.Seed = 10
	variants["seed"] = r
	r = quickRequest(2)
	r.Spec.Trials = 3
	variants["trials"] = r
	r = quickRequest(2)
	r.Spec.IDs = "E4"
	variants["ids"] = r
	for name, req := range variants {
		h := RequestHash(req)
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}

func TestRequestHashIsShardCountInvariant(t *testing.T) {
	// Sharding never changes the computed values, so the run identity —
	// and with it Merged.Hash — must not depend on the shard count.
	if RequestHash(quickRequest(2)) != RequestHash(quickRequest(7)) {
		t.Error("request hash depends on the shard count")
	}
}

func TestRequestValidate(t *testing.T) {
	if err := quickRequest(2).Validate(); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
	if err := quickRequest(0).Validate(); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Errorf("zero shards: %v", err)
	}
	bad := quickRequest(2)
	bad.Spec.IDs = "E999"
	if err := bad.Validate(); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunWorkerRejectsBadIndex(t *testing.T) {
	for _, idx := range []int{-1, 2} {
		if _, err := RunWorker(context.Background(), quickRequest(2), idx, 1, nil); err == nil {
			t.Errorf("index %d accepted", idx)
		}
	}
}

func TestRunWorkerBytesAreParallelismInvariant(t *testing.T) {
	req := quickRequest(3)
	a, err := RunWorker(context.Background(), req, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorker(context.Background(), req, 1, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("shard wire bytes depend on worker parallelism")
	}
}

func TestAssembleRejectsForeignMerge(t *testing.T) {
	req := quickRequest(1)
	raw, err := RunWorker(context.Background(), req, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]*Result{res})
	if err != nil {
		t.Fatal(err)
	}
	other := quickRequest(1)
	other.Spec.Seed = 1234
	var buf bytes.Buffer
	if err := Assemble(context.Background(), &buf, other, m, false); err == nil || !strings.Contains(err.Error(), "request is") {
		t.Errorf("foreign merged result accepted: %v", err)
	}
}
