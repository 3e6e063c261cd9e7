package persist

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"syscall"
)

// segment is the active WAL segment, preallocated to its full size and
// mapped shared: an append is a memory copy into the page cache, with no
// system call. A process crash therefore loses nothing that write(2) would
// have kept, and fsync on the file writes back the pages dirtied through the
// mapping exactly as it writes back those dirtied by write(2). What a kill
// leaves behind is the appended records followed by preallocated zeros,
// which replay reads as a torn tail (a zero length never frames a record).
type segment struct {
	f    *os.File
	data []byte
}

// openSegment creates the segment file at path, reserves size bytes of disk
// for it (so a full disk fails here, not as a fault on a later store) and
// maps it.
func openSegment(path string, size int64) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	err = syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		// No reservation on this filesystem: size the file sparsely; a
		// store into an unbackable page then faults, which write reports.
		err = f.Truncate(size)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &segment{f: f, data: data}, nil
}

// write copies rec into the mapping at off; the caller keeps off+len(rec)
// within the size the segment was opened with. A fault on the mapping (the
// file was truncated behind the log's back, or a sparse page could not be
// backed) comes back as an error instead of killing the process.
func (s *segment) write(off int64, rec []byte) (err error) {
	defer func(old bool) {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("fault on mapped segment: %v", r)
		}
	}(debug.SetPanicOnFault(true))
	copy(s.data[off:], rec)
	return nil
}

// sync forces the segment to stable storage. Safe to call concurrently with
// seal: it touches only the file, never the mapping.
func (s *segment) sync() error { return s.f.Sync() }

// seal cuts the segment to the size bytes appended, fsyncs it and releases
// the mapping and the file. The segment must not be used afterwards.
func (s *segment) seal(size int64) error {
	err := s.f.Truncate(size)
	if err == nil {
		err = s.f.Sync()
	}
	if uerr := syscall.Munmap(s.data); err == nil {
		err = uerr
	}
	s.data = nil
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
