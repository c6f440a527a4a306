package engine

// Boundary is one chunk's contribution to cross-seam window counting:
// its expanded length plus the materialized head and tail regions, each
// at most `width` events (fewer only when the chunk itself is shorter).
type Boundary struct {
	// Length is the chunk's expanded event count.
	Length uint64
	// Head holds the chunk's first min(Length, width) events.
	Head []uint64
	// Tail holds the chunk's last min(Length, width) events.
	Tail []uint64
}

// Boundary materializes the chunk's boundary regions of the given width.
// Width is the longest window length minus one: a window crossing a seam
// touches at most width events on either side.
func (a *Analysis) Boundary(width int) Boundary {
	b := Boundary{Length: a.Length()}
	k := uint64(width)
	if k > b.Length {
		k = b.Length
	}
	if k > 0 {
		b.Head = a.Collect(0, 0, k, nil)
		b.Tail = a.Collect(0, b.Length-k, k, nil)
	}
	return b
}

// CrossingWindows visits, for every chunk i, each start position inside
// chunk i from which a window of at most maxLen events extends past the
// chunk's end into later chunks. visit receives the longest such window,
// clipped at the end of the trace, and from, the shortest length at which
// a window from that start crosses the seam: the visit stands for one
// occurrence each of window[:l], from <= l <= len(window). Each crossing
// occurrence's start lies in exactly one chunk, so it is visited exactly
// once, with implicit weight 1 (boundary regions are raw positions, not
// grammar-weighted). The window slice is reused across calls; visitors
// must copy if they retain it. Boundaries must have been built with
// width >= maxLen-1.
func CrossingWindows(bounds []Boundary, maxLen int, visit func(window []uint64, from int)) {
	if maxLen < 2 {
		return // a 1-window cannot cross a boundary
	}
	stream := make([]uint64, 0, 2*maxLen)
	for i, b := range bounds {
		if b.Length == 0 {
			continue
		}
		t := len(b.Tail) // tail covers all crossing start positions: t >= min(Length, maxLen-1)
		// stream = tail of chunk i ++ up to maxLen-1 following events.
		stream = append(stream[:0], b.Tail...)
		need := maxLen - 1
		for j := i + 1; j < len(bounds) && need > 0; j++ {
			h := bounds[j].Head
			if len(h) > need {
				h = h[:need]
			}
			stream = append(stream, h...)
			need -= len(h)
		}
		if len(stream) == t {
			continue // nothing follows the last chunk
		}
		// A window from stream index s crosses iff it starts inside the
		// chunk (s < t) and is longer than t-s.
		for s := max(0, t-maxLen+1); s < t; s++ {
			visit(stream[s:min(len(stream), s+maxLen)], t-s+1)
		}
	}
}
