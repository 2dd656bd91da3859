package obs

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestLineEncoderShapes(t *testing.T) {
	var b strings.Builder
	e := NewLineEncoder(&b)

	e.Begin("header")
	e.Int("n", 64)
	e.Uint("seed", math.MaxUint64)
	e.Float("beta", 1.5)
	e.Bool("solved", true)
	e.Str("algo", `fi"xed`)
	if err := e.End(); err != nil {
		t.Fatal(err)
	}

	e.Begin("classes")
	e.Arr("sizes")
	e.ElemInt(5)
	e.ElemInt(3)
	e.ArrEnd()
	e.Arr("points")
	e.ElemArr()
	e.ElemFloat(0.5)
	e.ElemFloat(-2)
	e.ArrEnd()
	e.ArrEnd()
	if err := e.End(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	want0 := `{"event":"header","n":64,"seed":18446744073709551615,"beta":1.5,"solved":true,"algo":"fi\"xed"}`
	if lines[0] != want0 {
		t.Errorf("line 0 = %s, want %s", lines[0], want0)
	}
	want1 := `{"event":"classes","sizes":[5,3],"points":[[0.5,-2]]}`
	if lines[1] != want1 {
		t.Errorf("line 1 = %s, want %s", lines[1], want1)
	}
	// Every line must be valid JSON.
	for i, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %d is not valid JSON: %v", i, err)
		}
	}
}

func TestLineEncoderRaw(t *testing.T) {
	var b strings.Builder
	e := NewLineEncoder(&b)
	e.Begin("shard")
	e.Raw("summary", []byte(`{"n":3,"mean":1.5}`))
	e.Arr("values")
	e.ElemRaw([]byte(`{"rounds":7,"solved":true}`))
	e.ElemRaw([]byte(`42`))
	e.ArrEnd()
	if err := e.End(); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(b.String())
	want := `{"event":"shard","summary":{"n":3,"mean":1.5},"values":[{"rounds":7,"solved":true},42]}`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(got), &v); err != nil {
		t.Errorf("Raw line is not valid JSON: %v", err)
	}
}

func TestLineEncoderNonFiniteFloats(t *testing.T) {
	var b strings.Builder
	e := NewLineEncoder(&b)
	e.Begin("x")
	e.Float("nan", math.NaN())
	e.Float("inf", math.Inf(1))
	if err := e.End(); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(b.String())
	want := `{"event":"x","nan":null,"inf":null}`
	if got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errLineWrite }

var errLineWrite = errors.New("line write failed")

func TestLineEncoderStickyError(t *testing.T) {
	e := NewLineEncoder(failingWriter{})
	e.Begin("a")
	if err := e.End(); !errors.Is(err, errLineWrite) {
		t.Fatalf("End err = %v", err)
	}
	e.Begin("b")
	if err := e.End(); !errors.Is(err, errLineWrite) {
		t.Fatalf("second End err = %v", err)
	}
	if err := e.Err(); !errors.Is(err, errLineWrite) {
		t.Fatalf("Err = %v", err)
	}
}

func TestLineEncoderSteadyStateAllocs(t *testing.T) {
	var b strings.Builder
	e := NewLineEncoder(&b)
	emit := func() {
		e.Begin("recv")
		e.Int("round", 12)
		e.Int("node", 7)
		e.Int("from", 3)
		e.Float("sinr", 2.25)
		_ = e.End()
	}
	emit() // warm the buffer
	b.Reset()
	if allocs := testing.AllocsPerRun(100, func() { b.Reset(); emit() }); allocs > 1 {
		// strings.Builder.Write copies into its own buffer (one possible
		// growth); the encoder itself must not allocate per line.
		t.Errorf("steady-state line emit allocates %.1f times, want ≤ 1", allocs)
	}
}

// strLine encodes one line holding v as a Str field and returns the quoted
// value as written.
func strLine(v string) string {
	var b strings.Builder
	e := NewLineEncoder(&b)
	e.Begin("x")
	e.Str("s", v)
	_ = e.End()
	line := b.String()
	return line[len(`{"event":"x","s":`) : len(line)-len("}\n")]
}

// TestLineEncoderStrJSONEscapes: Str writes JSON escapes where Go quoting
// would write \x, \a, \v or \U, which JSON has not, and Go's own bytes
// everywhere else.
func TestLineEncoderStrJSONEscapes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", `"plain"`},
		{`quote " and \ backslash`, `"quote \" and \\ backslash"`},
		{"\b\f\n\r\t", `"\b\f\n\r\t"`},
		{"bell\a tab\v", `"bell\u0007 tab\u000b"`},
		{"\x00\x01\x1f", `"\u0000\u0001\u001f"`},
		{"del\x7f", `"del\u007f"`},
		{"502 Bad Gateway: caf\xe9 upstream", `"502 Bad Gateway: caf\ufffd upstream"`},
		{"\xff\xfe", `"\ufffd\ufffd"`},
		{"café ✓ 𝄞", `"café ✓ 𝄞"`},
		{"\u00ad\u2028", `"\u00ad\u2028"`},
		{"tag \U000e0001", `"tag \udb40\udc01"`},
		{"<a href=\"x\">&</a>", `"<a href=\"x\">&</a>"`},
	} {
		got := strLine(tc.in)
		if got != tc.want {
			t.Errorf("Str(%q) = %s, want %s", tc.in, got, tc.want)
		}
		if !json.Valid([]byte(got)) {
			t.Errorf("Str(%q) = %s is not valid JSON", tc.in, got)
		}
	}
}

// FuzzLineEncoderStr: Str always writes valid JSON, valid UTF-8 decodes
// back to itself, and the bytes are strconv.Quote's wherever those are
// valid JSON, so no line that was valid before changes.
func FuzzLineEncoderStr(f *testing.F) {
	for _, s := range []string{"", "plain", "caf\xe9", "\a\v\x7f", "\U000e0001", "\u2028", `"\`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := strLine(s)
		if !json.Valid([]byte(got)) {
			t.Fatalf("Str(%q) = %s is not valid JSON", s, got)
		}
		if utf8.ValidString(s) {
			var back string
			if err := json.Unmarshal([]byte(got), &back); err != nil || back != s {
				t.Fatalf("Str(%q) = %s decodes to %q (%v)", s, got, back, err)
			}
		}
		if q := strconv.Quote(s); json.Valid([]byte(q)) && got != q {
			t.Fatalf("Str(%q) = %s, strconv.Quote writes the valid JSON %s", s, got, q)
		}
	})
}
