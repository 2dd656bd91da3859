package trace

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Format selects a trace file encoding.
type Format uint8

const (
	// FormatNDJSON writes newline-delimited JSON (greppable, jq-able).
	FormatNDJSON Format = iota
	// FormatBinary writes the compact binary encoding for large runs.
	FormatBinary
)

// ParseFormat translates the CLI -trace-format value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "ndjson":
		return FormatNDJSON, nil
	case "binary":
		return FormatBinary, nil
	default:
		return 0, fmt.Errorf("trace: unknown format %q (want ndjson|binary)", s)
	}
}

// String returns the CLI name of the format.
func (f Format) String() string {
	if f == FormatBinary {
		return "binary"
	}
	return "ndjson"
}

// Ext returns the file extension of the format.
func (f Format) Ext() string {
	if f == FormatBinary {
		return "crtrace"
	}
	return "ndjson"
}

// MarshalText implements encoding.TextMarshaler with the CLI name.
func (f Format) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler through ParseFormat, so
// the -trace-format flag accepts exactly the CLI names.
func (f *Format) UnmarshalText(b []byte) error {
	v, err := ParseFormat(string(b))
	if err != nil {
		return err
	}
	*f = v
	return nil
}

// Write serialises the trace in the format.
func (f Format) Write(t *Trace, w io.Writer) error {
	if f == FormatBinary {
		return t.WriteBinary(w)
	}
	return t.WriteNDJSON(w)
}

// Policy bounds what a Monte Carlo capture retains, so tracing 10⁴ trials
// is safe by construction: deterministic trial sampling bounds how many
// recorders ever fill, failure-only retention bounds what reaches disk, and
// per-trial files keep any single artifact small.
type Policy struct {
	// Dir is the output directory (created on first use).
	Dir string
	// Format selects the per-trial file encoding.
	Format Format
	// EveryK samples every Kth trial (trial % K == 0) — a deterministic,
	// seed-independent rule, so the sampled set never depends on execution
	// order. Values ≤ 1 sample every trial.
	EveryK int
	// FailuresOnly retains only unsolved trials' traces; solved trials are
	// recorded but dropped at commit (their recorders are recycled).
	FailuresOnly bool
	// Classes additionally records the per-round link-class census (needs
	// the producer to put deployment points into the header).
	Classes bool
}

// AddFlags registers the capture flags on fs — -trace-dir, -trace-format,
// -trace-every (default every), -trace-failures and -trace-classes — and
// returns the policy they fill. An unknown -trace-format fails fs.Parse.
func AddFlags(fs *flag.FlagSet, every int) *Policy {
	p := &Policy{}
	fs.StringVar(&p.Dir, "trace-dir", "", "write per-trial structured traces into this `directory` (analyse with crtrace)")
	fs.TextVar(&p.Format, "trace-format", FormatNDJSON, "structured trace `format`: ndjson|binary")
	fs.IntVar(&p.EveryK, "trace-every", every, "with -trace-dir: trace every Kth trial of each trial loop")
	fs.BoolVar(&p.FailuresOnly, "trace-failures", false, "with -trace-dir: keep only unsolved trials' traces")
	fs.BoolVar(&p.Classes, "trace-classes", false, "include per-round link-class censuses in structured traces")
	return p
}

// Validate rejects a policy no capture can run.
func (p Policy) Validate() error {
	if p.EveryK < 0 {
		return fmt.Errorf("trace: sampling interval %d must be ≥ 0", p.EveryK)
	}
	return nil
}

// Sampled reports whether the policy traces the trial.
func (p Policy) Sampled(trial int) bool {
	if p.EveryK <= 1 {
		return true
	}
	return trial%p.EveryK == 0
}

// Filename is the per-trial trace file name: trial index plus the
// seed that drove the protocol, so a file names its own reproduction
// (trial-000042-seed-1f3ab....ndjson).
func (p Policy) Filename(trial int, seed uint64) string {
	return fmt.Sprintf("trial-%06d-seed-%016x.%s", trial, seed, p.Format.Ext())
}

// Capture manages per-trial recorders for a Monte Carlo run. It composes
// with internal/runner: workers obtain a recorder per sampled trial
// (Recorder), run the traced execution, and commit it (Commit); recorders
// are pooled and Reset between trials, and the retention policy is applied
// at commit time. All methods are safe for concurrent use by runner
// workers; trace files are written outside the lock (each trial owns its
// file).
//
// What lands on disk is independent of parallelism: sampling is a pure
// function of the trial index and each file's bytes are a pure function of
// the trial's execution.
type Capture struct {
	policy Policy
	cmd    string

	pool    sync.Pool
	mu      sync.Mutex
	written []string
	dropped int
	made    bool
}

// NewCapture validates the policy and returns a capture writing into
// p.Dir.
func NewCapture(cmd string, p Policy) (*Capture, error) {
	if p.Dir == "" {
		return nil, fmt.Errorf("trace: capture needs an output directory")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Capture{policy: p, cmd: cmd}, nil
}

// Policy returns the capture's retention policy.
func (c *Capture) Policy() Policy { return c.policy }

// Recorder returns a recycled per-node recorder for the trial, or nil when
// the sampling policy skips it. The recorder's header is pre-filled with
// the capture's command, the schema version, and the trial index; the
// caller completes it (seeds, n, algo, channel, points) before Commit.
func (c *Capture) Recorder(trial int) *Recorder {
	if !c.policy.Sampled(trial) {
		return nil
	}
	rec, _ := c.pool.Get().(*Recorder)
	if rec == nil {
		rec = &Recorder{}
	}
	rec.Reset()
	rec.PerNode = true
	rec.Classes = c.policy.Classes
	rec.Header = Header{Schema: SchemaVersion, Cmd: c.cmd, Trial: trial}
	return rec
}

// Commit finishes a sampled trial: it writes the trace file unless
// failure-only retention drops a solved trial, then recycles the recorder.
// The file name derives from the trial index and the recorder's header
// seed.
func (c *Capture) Commit(trial int, rec *Recorder, solved bool) error {
	defer func() {
		rec.Reset()
		c.pool.Put(rec)
	}()
	if c.policy.FailuresOnly && solved {
		c.mu.Lock()
		c.dropped++
		c.mu.Unlock()
		return nil
	}
	if err := c.ensureDir(); err != nil {
		return err
	}
	path := filepath.Join(c.policy.Dir, c.policy.Filename(trial, rec.Header.Seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: capture: %w", err)
	}
	err = c.policy.Format.Write(&rec.Trace, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: capture %s: %w", path, err)
	}
	c.mu.Lock()
	c.written = append(c.written, path)
	c.mu.Unlock()
	return nil
}

// ensureDir creates the output directory once.
func (c *Capture) ensureDir() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.made {
		return nil
	}
	if err := os.MkdirAll(c.policy.Dir, 0o755); err != nil {
		return fmt.Errorf("trace: capture: %w", err)
	}
	c.made = true
	return nil
}

// Written returns the committed trace file paths in name order (trial
// order, since names embed the trial index).
func (c *Capture) Written() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.written...)
	sort.Strings(out)
	return out
}

// Dropped returns the number of sampled trials whose traces the retention
// policy discarded.
func (c *Capture) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
