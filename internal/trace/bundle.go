// Trace federation: a Bundle is how a shard worker ships its per-trial
// trace files back to the coordinator. The wire form rides after the shard
// result stream — an NDJSON manifest whose file lines are each followed by
// the file's raw payload bytes, so NDJSON traces stay greppable on the wire
// and binary traces ship without any base64 inflation:
//
//	{"event":"trace-bundle","schema":1,"format":"ndjson","every":K,"failures":false,"classes":false}
//	{"event":"trace-file","loop":0,"trial":42,"name":"trial-000042-seed-….ndjson","size":S,"sha256":"…"}
//	<S raw payload bytes>
//	…
//	{"event":"trace-end","files":N,"bytes":TOTAL}
//
// Like the shard wire, truncation is detectable by construction: every
// payload is length-prefixed by its manifest line, each payload is bound to
// a SHA-256, and the end line counts files and payload bytes. The header
// echoes the capture policy so a coordinator can reject a result (or a
// stale checkpoint) whose traces were captured under a different policy
// than the one requested.
package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fadingcr/internal/obs"
)

// BundleSchemaVersion identifies the trace-bundle wire layout; bump on
// incompatible change.
const BundleSchemaVersion = 1

// bundleMagic is the wire prefix a bundle stream starts with — callers that
// multiplex a bundle after another NDJSON stream peek for it.
const bundleMagic = `{"event":"trace-bundle"`

// IsBundlePrefix reports whether b starts a trace-bundle stream.
func IsBundlePrefix(b []byte) bool {
	return bytes.HasPrefix(b, []byte(bundleMagic))
}

// BundleMagicLen is the number of bytes IsBundlePrefix needs to decide.
const BundleMagicLen = len(bundleMagic)

// BundleFile is one captured trace file in a bundle: its loop/trial
// provenance, bare file name, and payload.
type BundleFile struct {
	// Loop is the trial loop that wrote the file (see Capture.SetLoop).
	// Loops reuse trial indices, so Name alone is not unique across a run;
	// (Loop, Name) is.
	Loop int
	// Trial is the global trial index the file traces.
	Trial int
	// Name is the bare file name (Policy.Filename); never a path.
	Name string
	// Data is the file's payload.
	Data []byte
}

// Bundle is a shard worker's complete trace capture, ready for the wire.
type Bundle struct {
	// Policy echoes the capture policy the files were written under. Dir is
	// empty on the wire — bundles carry names, not paths.
	Policy Policy
	// Files holds the entries in canonical (Loop, Name) order.
	Files []BundleFile
}

// Bundle packages the capture's committed files for the wire. Loops reuse
// trial indices and therefore file names; as on disk — where the last loop's
// write is what the directory ends up holding — only each name's
// highest-loop entry is kept. The result is sorted by (Loop, Name) so the
// bytes are a pure function of the captured set.
func (c *Capture) Bundle() (*Bundle, error) {
	c.mu.Lock()
	entries := append([]BundleFile(nil), c.entries...)
	c.mu.Unlock()

	latest := map[string]BundleFile{}
	for _, e := range entries {
		if prev, ok := latest[e.Name]; ok && prev.Loop >= e.Loop {
			continue
		}
		latest[e.Name] = e
	}
	files := make([]BundleFile, 0, len(latest))
	for _, e := range latest {
		files = append(files, e)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].Loop != files[j].Loop {
			return files[i].Loop < files[j].Loop
		}
		return files[i].Name < files[j].Name
	})
	for i := range files {
		data, err := os.ReadFile(filepath.Join(c.policy.Dir, files[i].Name))
		if err != nil {
			return nil, fmt.Errorf("trace: bundle: %w", err)
		}
		files[i].Data = data
	}
	p := c.policy
	p.Dir = ""
	return &Bundle{Policy: p, Files: files}, nil
}

// Encode writes the canonical wire form. The bytes are a pure function of
// the bundle, so two workers capturing the same shard produce identical
// streams.
func (b *Bundle) Encode(w io.Writer) error {
	enc := obs.NewLineEncoder(w)
	if err := headerLine(enc, b.Policy); err != nil {
		return err
	}
	total := int64(0)
	for _, f := range b.Files {
		if f.Name == "" || f.Name != filepath.Base(f.Name) || strings.HasPrefix(f.Name, ".") {
			return fmt.Errorf("trace: bundle entry name %q is not a bare file name", f.Name)
		}
		sum := sha256.Sum256(f.Data)
		if err := fileLine(enc, f.Loop, f.Trial, f.Name, int64(len(f.Data)), hex.EncodeToString(sum[:])); err != nil {
			return err
		}
		if _, err := w.Write(f.Data); err != nil {
			return err
		}
		total += int64(len(f.Data))
	}
	return endLine(enc, len(b.Files), total)
}

// headerLine, fileLine and endLine write the three manifest line shapes.
// Encode writes every line through them, and ReadBundle re-encodes every
// line it accepts through them, so only canonical bytes decode.
func headerLine(enc *obs.LineEncoder, p Policy) error {
	enc.Begin("trace-bundle")
	enc.Int("schema", BundleSchemaVersion)
	enc.Str("format", p.Format.String())
	enc.Int("every", int64(p.EveryK))
	enc.Bool("failures", p.FailuresOnly)
	enc.Bool("classes", p.Classes)
	return enc.End()
}

func fileLine(enc *obs.LineEncoder, loop, trial int, name string, size int64, sha string) error {
	enc.Begin("trace-file")
	enc.Int("loop", int64(loop))
	enc.Int("trial", int64(trial))
	enc.Str("name", name)
	enc.Int("size", size)
	enc.Str("sha256", sha)
	return enc.End()
}

func endLine(enc *obs.LineEncoder, files int, total int64) error {
	enc.Begin("trace-end")
	enc.Int("files", int64(files))
	enc.Int("bytes", total)
	return enc.End()
}

// canonical reports an error unless raw is exactly the line write encodes.
func canonical(raw []byte, write func(*obs.LineEncoder) error) error {
	if !obs.Canonical(raw, write) {
		return fmt.Errorf("trace: bundle line %q is not in canonical form", bytes.TrimSpace(raw))
	}
	return nil
}

// bundleLine is the union of the manifest line shapes; Event discriminates.
type bundleLine struct {
	Event    string `json:"event"`
	Schema   int    `json:"schema"`
	Format   string `json:"format"`
	Every    int    `json:"every"`
	Failures bool   `json:"failures"`
	Classes  bool   `json:"classes"`
	Loop     int    `json:"loop"`
	Trial    int    `json:"trial"`
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	SHA256   string `json:"sha256"`
	Files    int    `json:"files"`
	Bytes    int64  `json:"bytes"`
}

// maxBundleFileSize bounds one payload so a corrupted size field cannot ask
// the decoder to allocate unbounded memory. Per-trial traces are small by
// the capture policy's construction; 256 MiB is far above any real file.
const maxBundleFileSize = 256 << 20

// ReadBundle parses and validates one bundle stream from br, which must be
// positioned at the header line. It consumes through the trace-end line and
// leaves anything after it unread (the shard decoder owns trailing-data
// policy). Size, hash, count, or ordering violations are errors — a
// truncated or tampered stream never decodes — and so is any manifest line
// that is not byte for byte the line Encode writes, so an accepted stream
// re-encodes to exactly the bytes read. Memory grows with the bytes
// actually present, never with a declared size.
func ReadBundle(br *bufio.Reader) (*Bundle, error) {
	readLine := func() (*bundleLine, []byte, error) {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			} else if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, fmt.Errorf("trace: truncated bundle: %w", err)
		}
		var l bundleLine
		if uerr := json.Unmarshal(bytes.TrimSpace(raw), &l); uerr != nil {
			return nil, nil, fmt.Errorf("trace: parse bundle line: %w", uerr)
		}
		return &l, raw, nil
	}

	head, raw, err := readLine()
	if err != nil {
		return nil, err
	}
	if head.Event != "trace-bundle" {
		return nil, fmt.Errorf("trace: bundle header event %q, want trace-bundle", head.Event)
	}
	if head.Schema != BundleSchemaVersion {
		return nil, fmt.Errorf("trace: bundle schema %d, want %d", head.Schema, BundleSchemaVersion)
	}
	format, err := ParseFormat(head.Format)
	if err != nil {
		return nil, err
	}
	b := &Bundle{Policy: Policy{
		Format: format, EveryK: head.Every,
		FailuresOnly: head.Failures, Classes: head.Classes,
	}}
	if err := canonical(raw, func(enc *obs.LineEncoder) error { return headerLine(enc, b.Policy) }); err != nil {
		return nil, err
	}
	total := int64(0)
	for {
		l, raw, err := readLine()
		if err != nil {
			return nil, err
		}
		switch l.Event {
		case "trace-file":
			if l.Size < 0 || l.Size > maxBundleFileSize {
				return nil, fmt.Errorf("trace: bundle file %q declares %d bytes", l.Name, l.Size)
			}
			if l.Name == "" || l.Name != filepath.Base(l.Name) || strings.HasPrefix(l.Name, ".") {
				return nil, fmt.Errorf("trace: bundle entry name %q is not a bare file name", l.Name)
			}
			if n := len(b.Files); n > 0 {
				prev := b.Files[n-1]
				if l.Loop < prev.Loop || (l.Loop == prev.Loop && l.Name <= prev.Name) {
					return nil, fmt.Errorf("trace: bundle entry (%d,%q) out of order after (%d,%q)", l.Loop, l.Name, prev.Loop, prev.Name)
				}
			}
			if err := canonical(raw, func(enc *obs.LineEncoder) error {
				return fileLine(enc, l.Loop, l.Trial, l.Name, l.Size, l.SHA256)
			}); err != nil {
				return nil, err
			}
			// Read what is there rather than allocating the declared size up
			// front, so a truncated stream costs memory in proportion to its
			// length.
			data, err := io.ReadAll(io.LimitReader(br, l.Size))
			if err == nil && int64(len(data)) < l.Size {
				err = io.ErrUnexpectedEOF
			}
			if err != nil {
				return nil, fmt.Errorf("trace: truncated bundle payload %q: %w", l.Name, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != l.SHA256 {
				return nil, fmt.Errorf("trace: bundle payload %q hash %s, manifest says %s", l.Name, got, l.SHA256)
			}
			b.Files = append(b.Files, BundleFile{Loop: l.Loop, Trial: l.Trial, Name: l.Name, Data: data})
			total += l.Size
		case "trace-end":
			if err := canonical(raw, func(enc *obs.LineEncoder) error { return endLine(enc, l.Files, l.Bytes) }); err != nil {
				return nil, err
			}
			if l.Files != len(b.Files) {
				return nil, fmt.Errorf("trace: bundle end counts %d files, stream has %d", l.Files, len(b.Files))
			}
			if l.Bytes != total {
				return nil, fmt.Errorf("trace: bundle end counts %d payload bytes, stream has %d", l.Bytes, total)
			}
			return b, nil
		default:
			return nil, fmt.Errorf("trace: unexpected bundle event %q", l.Event)
		}
	}
}

// WriteFiles materializes bundle entries into dir, creating it if needed.
// Entries are written in slice order, so a later entry for the same name
// overwrites an earlier one — exactly the overwrite order an unsharded
// capture's trial loops applied to the directory. It returns the number of
// distinct file names written.
func WriteFiles(dir string, files []BundleFile) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("trace: write bundle: %w", err)
	}
	names := map[string]bool{}
	for _, f := range files {
		if f.Name == "" || f.Name != filepath.Base(f.Name) || strings.HasPrefix(f.Name, ".") {
			return 0, fmt.Errorf("trace: bundle entry name %q is not a bare file name", f.Name)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
			return 0, fmt.Errorf("trace: write bundle: %w", err)
		}
		names[f.Name] = true
	}
	return len(names), nil
}
