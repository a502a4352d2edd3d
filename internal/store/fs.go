// Package store is the filesystem-backed, content-addressed result store:
// replication results keyed by (config fingerprint, seed) survive process
// restarts, so a crashed or killed sweep resumes instead of recomputing.
//
// Crash safety is the design center. Every entry is written via temp file +
// fsync + atomic rename, framed by a versioned codec with a length and a
// CRC32C checksum, so a torn or bit-flipped entry is detected on read,
// quarantined, and transparently recomputed — the store can lose work,
// never corrupt results. All filesystem access goes through the FS
// interface so tests inject deterministic faults (error on the Nth write,
// short writes, rename failures, read corruption) and prove each failure
// mode degrades to a cache miss. See DESIGN.md §11.
package store

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface the store needs: sequential writes, a
// durability barrier, and a close. Name reports the path the file was
// created at (temp files get their final random name).
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Close closes the file; data is not durable unless Sync came first.
	Close() error
	// Name returns the file's path.
	Name() string
}

// FS is the filesystem seam: the mutating operations and the reads the
// store performs, small enough to wrap with failpoints. The
// production implementation is OS; FaultFS (fault.go) decorates any FS
// with deterministic failures.
type FS interface {
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string) error
	// CreateTemp creates a new file with a unique name in dir
	// (pattern as in os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// OpenExcl creates path exclusively (O_CREATE|O_EXCL|O_WRONLY): it
	// fails with fs.ErrExist if the path already exists. This is the
	// lease-acquisition primitive.
	OpenExcl(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent — the
	// journal primitive.
	OpenAppend(path string) (File, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// Open opens path for reading, for reads that need only a prefix.
	Open(path string) (io.ReadCloser, error)
	// Rename atomically moves oldpath to newpath (same filesystem).
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Stat describes path (lease staleness reads ModTime).
	Stat(path string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a completed rename
	// durable across power loss.
	SyncDir(path string) error
}

// osFS is the production FS backed by the real filesystem.
type osFS struct{}

// OS is the production filesystem.
var OS FS = osFS{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenExcl(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		// Close error is subsumed by the sync failure.
		_ = d.Close()
		return err
	}
	return d.Close()
}
