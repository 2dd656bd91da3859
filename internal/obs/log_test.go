package obs

import (
	"strings"
	"testing"
)

func TestLoggerShapes(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, "shard")
	l.Log("gave up", F("shard", 3), F("executor", "local-0"))
	want := `{"event":"shard","msg":"gave up","shard":3,"executor":"local-0"}` + "\n"
	if b.String() != want {
		t.Errorf("Log wrote %q, want %q", b.String(), want)
	}
	var nilLogger *Logger
	nilLogger.Log("ignored") // must not panic
}
