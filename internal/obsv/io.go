package obsv

import "io"

// CountingWriter counts bytes flowing to W into C. Used to meter artifact
// encode paths without changing codec signatures.
type CountingWriter struct {
	W io.Writer
	C *Counter
}

func (cw CountingWriter) Write(p []byte) (int, error) {
	n, err := cw.W.Write(p)
	cw.C.Add(uint64(n))
	return n, err
}
