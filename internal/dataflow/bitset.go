package dataflow

import "math/bits"

// Bitset is a fixed-size bit vector. It backs the feasible-path sets:
// bit i is Ball–Larus path ID i.
type Bitset struct {
	words []uint64
}

// NewBitset returns an all-zero bitset of n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i.
func (s *Bitset) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (s *Bitset) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (s *Bitset) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}
