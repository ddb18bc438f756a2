package sched

import (
	"math/rand"
	"sync"
)

// The jitter stream is math/rand's seeded stream, continued by hand.
// rand.NewSource is an additive lagged-Fibonacci generator: output n is the
// sum of outputs n-607 and n-273, and nothing else. Its 607-word state
// vector is therefore, after 607 draws, exactly its last 607 outputs, so a
// ring holding outputs [k·607, (k+1)·607) in order is the whole generator,
// and the next 607 outputs overwrite it in place:
//
//	x[n] = x[n-607] + x[n-273]
//	ring[i] += ring[i+334]   for i <  273   (n-273 is still last round's)
//	ring[i] += ring[i-273]   for i >= 273   (n-273 is already this round's)
//
// Owning the ring is what lets the scheduler find the next slow retirement
// without drawing through an interface once per retired instruction: the
// loops that write the ring also list where its hits are.
// TestJitterStreamIsMathRand holds the stream to math/rand's, draw for
// draw, on every toolchain CI runs.

const (
	jitterLen = 607 // math/rand's rngLen
	jitterTap = 273 // math/rand's rngTap

	// One retirement in 64 is slow: Intn(64) == 0. For a power of two
	// math/rand masks Int31, the high half of Int63, so the draw is bits
	// 32–37 of the source's word.
	jitterHitMask = 63 << 32
	// A slow retirement costs Intn(24) cycles more. Int31n rejects draws
	// above the largest multiple of 24 that fits 31 bits: 1<<31 % 24 == 8.
	jitterExtraN   = 24
	jitterExtraMax = 1<<31 - 1 - 8
)

type jitterStream struct {
	ring [jitterLen]uint64
	pos  int // next unread word; jitterLen when the ring is spent
	// hits lists the ring positions of the words that make a retirement
	// slow, in order and followed by jitterLen; hit indexes the first of
	// them gap has not passed. (A hit intn24 consumed is passed over.)
	hits [jitterLen + 1]uint16
	hit  int
}

// primers are the math/rand sources the rings are primed from: seeding one
// is the only part of the generator not reproduced here (it needs
// math/rand's table of 607 additive constants).
var primers = sync.Pool{New: func() any { return rand.NewSource(0) }}

// seed starts the stream rand.NewSource(seed) produces.
func (j *jitterStream) seed(seed int64) {
	src := primers.Get().(rand.Source64)
	src.Seed(seed)
	k := 0
	for i := range j.ring {
		x := src.Uint64()
		j.ring[i] = x
		k = j.index(k, i, x)
	}
	primers.Put(src)
	j.rewind(k)
}

// refill replaces the ring's 607 outputs with the next 607.
func (j *jitterStream) refill() {
	r, k := &j.ring, 0
	for i := 0; i < jitterTap; i++ {
		r[i] += r[i+jitterLen-jitterTap]
		k = j.index(k, i, r[i])
	}
	for i := jitterTap; i < jitterLen; i++ {
		r[i] += r[i-jitterTap]
		k = j.index(k, i, r[i])
	}
	j.rewind(k)
}

// index lists ring position i as hit number k if its word x is a hit, and
// returns the number of hits listed. One word in 64 is a hit, so the branch
// is nearly always predicted; writing every word's position and counting
// the hits without a branch measured 40 % slower (EXPERIMENTS.md "ISSUE
// 52").
func (j *jitterStream) index(k, i int, x uint64) int {
	if x&jitterHitMask == 0 {
		j.hits[k] = uint16(i)
		k++
	}
	return k
}

// rewind ends the list of the k hits just indexed and starts reading the
// ring from its first word.
func (j *jitterStream) rewind(k int) {
	j.hits[k] = jitterLen
	j.pos, j.hit = 0, 0
}

// next draws one word.
func (j *jitterStream) next() uint64 {
	if j.pos == jitterLen {
		j.refill()
	}
	x := j.ring[j.pos]
	j.pos++
	return x
}

// gap consumes draws up to and including the next one for which Intn(64)
// would return zero, and returns how many it passed over before that one.
func (j *jitterStream) gap() int {
	n := 0
	for {
		for int(j.hits[j.hit]) < j.pos {
			j.hit++
		}
		if h := int(j.hits[j.hit]); h < jitterLen {
			n += h - j.pos
			j.pos, j.hit = h+1, j.hit+1
			return n
		}
		n += jitterLen - j.pos
		j.refill()
	}
}

// intn24 is Rand.Intn(24).
func (j *jitterStream) intn24() int64 {
	v := j.next() << 1 >> 33 // Int31: the top 31 bits of Int63
	for v > jitterExtraMax {
		v = j.next() << 1 >> 33
	}
	return int64(v % jitterExtraN)
}
