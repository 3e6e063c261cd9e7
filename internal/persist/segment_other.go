//go:build !linux

package persist

import "os"

// segment is the active WAL segment: a file that every append extends with
// one write(2). The size it is opened with is a rotation bound only; the
// file always holds exactly the bytes appended.
type segment struct {
	f *os.File
}

// openSegment creates the segment file at path.
func openSegment(path string, _ int64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{f: f}, nil
}

// write appends rec. Appends are sequential, so off is always the file's
// current length.
func (s *segment) write(_ int64, rec []byte) error {
	_, err := s.f.Write(rec)
	return err
}

// sync forces the segment to stable storage. Safe to call concurrently with
// seal.
func (s *segment) sync() error { return s.f.Sync() }

// seal fsyncs and closes the segment, which already holds exactly size bytes.
func (s *segment) seal(int64) error {
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
