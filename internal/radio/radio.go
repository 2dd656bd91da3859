// Package radio implements the classical radio network model of Chlamtac and
// Kutten / Bar-Yehuda et al. used as the paper's point of comparison: all
// nodes share a single-hop collision channel on which a listener receives a
// message iff exactly one node transmits in the round. Concurrent
// transmissions are lost at every listener, and — matching the model the
// paper cites — transmitters learn nothing about the fate of their
// transmissions.
//
// The channel optionally provides receiver-side collision detection: with it
// enabled, listeners can distinguish silence (no transmitter) from a
// collision (two or more transmitters), which is the capability that drops
// the contention-resolution bound from Θ(log² n) to Θ(log n).
package radio

import (
	"errors"
	"fmt"
)

// Feedback is what a listener perceives in a round on a collision-detection
// channel.
type Feedback int

const (
	// Silence: no node transmitted.
	Silence Feedback = iota + 1
	// Message: exactly one node transmitted; listeners received it.
	Message
	// Collision: two or more nodes transmitted. Only distinguishable from
	// Silence when collision detection is enabled.
	Collision
)

// String implements fmt.Stringer.
func (f Feedback) String() string {
	switch f {
	case Silence:
		return "silence"
	case Message:
		return "message"
	case Collision:
		return "collision"
	default:
		return fmt.Sprintf("Feedback(%d)", int(f))
	}
}

// Channel is a single-hop collision channel over n nodes. The zero value is
// not usable; construct with New.
type Channel struct {
	n               int
	collisionDetect bool
}

// New builds a collision channel for n ≥ 1 nodes. collisionDetect enables
// receiver-side collision detection.
func New(n int, collisionDetect bool) (*Channel, error) {
	if n < 1 {
		return nil, errors.New("radio: channel needs at least one node")
	}
	return &Channel{n: n, collisionDetect: collisionDetect}, nil
}

// N returns the number of nodes on the channel.
func (c *Channel) N() int { return c.n }

// CollisionDetection reports whether listeners can distinguish collisions
// from silence.
func (c *Channel) CollisionDetection() bool { return c.collisionDetect }

// Deliver computes one round of reception: recv[v] is the transmitter whose
// message v received (only when exactly one node transmitted and v was
// listening), else −1. The slice contract matches the SINR channel so the
// two are interchangeable behind the sim.Channel interface.
func (c *Channel) Deliver(tx []bool, recv []int) {
	if len(tx) != c.n || len(recv) != c.n {
		panic(fmt.Sprintf("radio: Deliver slice lengths tx=%d recv=%d, want %d", len(tx), len(recv), c.n))
	}
	// Counting stops at the second transmitter: two already collide.
	solo, count := -1, 0
	for u, t := range tx {
		if t {
			if count++; count > 1 {
				break
			}
			solo = u
		}
	}
	heard := -1
	if count == 1 {
		heard = solo
	}
	for v := range recv {
		recv[v] = heard
	}
	if count == 1 {
		recv[solo] = -1 // the transmitter was not listening
	}
}

// Observe returns the channel feedback a listener perceives for the given
// transmit vector. Without collision detection, Collision is reported as
// Silence (indistinguishable).
func (c *Channel) Observe(tx []bool) Feedback {
	count := 0
	for _, t := range tx {
		if t {
			count++
			if count > 1 {
				break
			}
		}
	}
	switch {
	case count == 0:
		return Silence
	case count == 1:
		return Message
	case c.collisionDetect:
		return Collision
	default:
		return Silence
	}
}
