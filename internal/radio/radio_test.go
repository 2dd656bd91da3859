package radio

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, false); err == nil {
		t.Error("n=0 accepted")
	}
	c, err := New(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 5 {
		t.Errorf("N = %d, want 5", c.N())
	}
	if !c.CollisionDetection() {
		t.Error("CollisionDetection = false, want true")
	}
}

func TestDeliverSolo(t *testing.T) {
	c, _ := New(4, false)
	recv := make([]int, 4)
	c.Deliver([]bool{false, true, false, false}, recv)
	want := []int{1, -1, 1, 1}
	for v := range want {
		if recv[v] != want[v] {
			t.Errorf("recv = %v, want %v", recv, want)
			break
		}
	}
}

func TestDeliverCollisionLosesEverything(t *testing.T) {
	c, _ := New(4, false)
	recv := make([]int, 4)
	c.Deliver([]bool{true, true, false, false}, recv)
	for v, r := range recv {
		if r != -1 {
			t.Errorf("recv[%d] = %d under collision, want -1", v, r)
		}
	}
}

func TestDeliverSilence(t *testing.T) {
	c, _ := New(3, false)
	recv := make([]int, 3)
	c.Deliver([]bool{false, false, false}, recv)
	for v, r := range recv {
		if r != -1 {
			t.Errorf("recv[%d] = %d under silence, want -1", v, r)
		}
	}
}

func TestDeliverPanicsOnBadLengths(t *testing.T) {
	c, _ := New(3, false)
	defer func() {
		if recover() == nil {
			t.Error("no panic for mismatched slice lengths")
		}
	}()
	c.Deliver(make([]bool, 2), make([]int, 3))
}

// TestDeliverExactlyOneTransmitterProperty: reception happens iff exactly
// one node transmits, and then every listener hears it.
func TestDeliverExactlyOneTransmitterProperty(t *testing.T) {
	f := func(bits uint16) bool {
		const n = 12
		c, err := New(n, false)
		if err != nil {
			return false
		}
		tx := make([]bool, n)
		count, solo := 0, -1
		for i := 0; i < n; i++ {
			tx[i] = bits&(1<<i) != 0
			if tx[i] {
				count++
				solo = i
			}
		}
		recv := make([]int, n)
		c.Deliver(tx, recv)
		for v := range recv {
			want := -1
			if count == 1 && !tx[v] {
				want = solo
			}
			if recv[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeliverMatchesLiteralRule holds Deliver to the rule written out per
// listener, on rounds with no transmitter, one, two and every node, with
// recv holding stale values beforehand so that every entry must be written.
func TestDeliverMatchesLiteralRule(t *testing.T) {
	const n = 9
	c, err := New(n, false)
	if err != nil {
		t.Fatal(err)
	}
	rounds := map[string][]int{"none": {}, "one": {4}, "one, last": {n - 1}, "two": {2, 7}, "all": nil}
	for v := range n {
		rounds["all"] = append(rounds["all"], v)
	}
	for name, senders := range rounds {
		tx := make([]bool, n)
		for _, u := range senders {
			tx[u] = true
		}
		recv := make([]int, n)
		for v := range recv {
			recv[v] = 100 + v
		}
		c.Deliver(tx, recv)
		for v := range n {
			want := -1
			if len(senders) == 1 && !tx[v] {
				want = senders[0]
			}
			if recv[v] != want {
				t.Errorf("%s: recv[%d] = %d, want %d", name, v, recv[v], want)
			}
		}
	}
}

func TestObserve(t *testing.T) {
	cd, _ := New(3, true)
	noCD, _ := New(3, false)
	cases := []struct {
		tx      []bool
		withCD  Feedback
		without Feedback
	}{
		{[]bool{false, false, false}, Silence, Silence},
		{[]bool{false, true, false}, Message, Message},
		{[]bool{true, true, false}, Collision, Silence},
		{[]bool{true, true, true}, Collision, Silence},
	}
	for _, c := range cases {
		if got := cd.Observe(c.tx); got != c.withCD {
			t.Errorf("CD Observe(%v) = %v, want %v", c.tx, got, c.withCD)
		}
		if got := noCD.Observe(c.tx); got != c.without {
			t.Errorf("no-CD Observe(%v) = %v, want %v", c.tx, got, c.without)
		}
	}
}

func TestFeedbackString(t *testing.T) {
	if Silence.String() != "silence" || Message.String() != "message" || Collision.String() != "collision" {
		t.Error("Feedback String values wrong")
	}
	if Feedback(0).String() != "Feedback(0)" {
		t.Errorf("zero Feedback String = %q", Feedback(0).String())
	}
}
