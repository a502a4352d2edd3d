package store

import (
	"errors"
	"io"
	"io/fs"
	"sync"
)

// ErrInjected is the root of every fault this file injects, so tests can
// assert a failure came from the harness rather than the real filesystem.
var ErrInjected = errors.New("store: injected fault")

// FaultFS decorates an FS with deterministic failpoints, extending the
// PR 1 fault philosophy (MMSC outages, delivery loss, churn) to the I/O
// layer: error on the Nth write, short writes, rename failures, and read
// corruption. Each failpoint is an explicit countdown — no randomness — so
// a test drives exactly the torn-write or bit-flip it wants and asserts
// the store degrades to recomputation, never to wrong answers.
//
// The zero countdown (0) means "disarmed". Arming a countdown with n means
// the fault fires on the nth matching operation from now. FaultFS is safe
// for concurrent use.
type FaultFS struct {
	inner FS

	mu sync.Mutex
	// failWriteIn fires an error on the Nth Write call across all files.
	failWriteIn int
	// shortWriteIn truncates the Nth Write to half its bytes (reported
	// honestly, as a kernel would on a full disk).
	shortWriteIn int
	// failRenameIn fires an error on the Nth Rename.
	failRenameIn int
	// failSyncIn fires an error on the Nth file Sync.
	failSyncIn int
	// corruptReadIn bit-flips the middle byte of the Nth ReadFile result.
	corruptReadIn int
	// truncReadIn returns only the first half of the Nth ReadFile result,
	// simulating a torn write observed after a crash.
	truncReadIn int
	// failOpenExclIn fires an I/O error (not fs.ErrExist) on the Nth
	// OpenExcl — a claim or lease acquisition failing at the filesystem,
	// not losing the race.
	failOpenExclIn int
	// failAppendIn fires an error on the Nth OpenAppend — journal,
	// heartbeat, or failure-log appends refused by the filesystem.
	failAppendIn int

	// Writes, Renames, Reads, SyncDirs count operations for test
	// assertions.
	Writes, Renames, Reads, SyncDirs int
}

// NewFaultFS wraps inner (OS when nil) with disarmed failpoints.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS
	}
	return &FaultFS{inner: inner}
}

// FailWriteIn arms the write-error failpoint: the nth Write from now
// fails.
func (f *FaultFS) FailWriteIn(n int) { f.arm(&f.failWriteIn, n) }

// ShortWriteIn arms the short-write failpoint: the nth Write from now
// writes only half its bytes.
func (f *FaultFS) ShortWriteIn(n int) { f.arm(&f.shortWriteIn, n) }

// FailRenameIn arms the rename failpoint: the nth Rename from now fails.
func (f *FaultFS) FailRenameIn(n int) { f.arm(&f.failRenameIn, n) }

// FailSyncIn arms the fsync failpoint: the nth file Sync from now fails.
func (f *FaultFS) FailSyncIn(n int) { f.arm(&f.failSyncIn, n) }

// CorruptReadIn arms the read-corruption failpoint: the nth ReadFile from
// now returns its contents with one byte bit-flipped.
func (f *FaultFS) CorruptReadIn(n int) { f.arm(&f.corruptReadIn, n) }

// TruncateReadIn arms the torn-read failpoint: the nth ReadFile from now
// returns only the first half of the file.
func (f *FaultFS) TruncateReadIn(n int) { f.arm(&f.truncReadIn, n) }

// FailOpenExclIn arms the exclusive-create failpoint: the nth OpenExcl
// from now fails with an I/O error (not fs.ErrExist).
func (f *FaultFS) FailOpenExclIn(n int) { f.arm(&f.failOpenExclIn, n) }

// FailAppendIn arms the append-open failpoint: the nth OpenAppend from now
// fails with an I/O error.
func (f *FaultFS) FailAppendIn(n int) { f.arm(&f.failAppendIn, n) }

func (f *FaultFS) arm(slot *int, n int) {
	f.mu.Lock()
	*slot = n
	f.mu.Unlock()
}

// fire decrements an armed countdown and reports whether it hit zero.
func fire(slot *int) bool {
	if *slot <= 0 {
		return false
	}
	*slot--
	return *slot == 0
}

func (f *FaultFS) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) OpenExcl(path string) (File, error) {
	f.mu.Lock()
	hit := fire(&f.failOpenExclIn)
	f.mu.Unlock()
	if hit {
		return nil, openError{name: path}
	}
	inner, err := f.inner.OpenExcl(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) OpenAppend(path string) (File, error) {
	f.mu.Lock()
	hit := fire(&f.failAppendIn)
	f.mu.Unlock()
	if hit {
		return nil, openError{name: path}
	}
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return data, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Reads++
	if fire(&f.corruptReadIn) && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	if fire(&f.truncReadIn) {
		data = data[:len(data)/2]
	}
	return data, nil
}

func (f *FaultFS) Open(path string) (io.ReadCloser, error) { return f.inner.Open(path) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.Renames++
	hit := fire(&f.failRenameIn)
	f.mu.Unlock()
	if hit {
		return renameError{oldpath: oldpath, newpath: newpath}
	}
	return f.inner.Rename(oldpath, newpath) //mvlint:allow atomicproto — fault-injection decorator forwards a bare rename; the caller owns the publication protocol
}

func (f *FaultFS) Remove(path string) error              { return f.inner.Remove(path) }
func (f *FaultFS) Stat(path string) (fs.FileInfo, error) { return f.inner.Stat(path) }
func (f *FaultFS) SyncDir(path string) error {
	f.mu.Lock()
	f.SyncDirs++
	f.mu.Unlock()
	return f.inner.SyncDir(path)
}

// faultFile routes Write and Sync through the armed failpoints.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	ff.fs.Writes++
	failHit := fire(&ff.fs.failWriteIn)
	shortHit := fire(&ff.fs.shortWriteIn)
	ff.fs.mu.Unlock()
	if failHit {
		return 0, writeError{name: ff.Name()}
	}
	if shortHit && len(p) > 1 {
		n, err := ff.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, nil // short write, no error: the caller must notice
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	hit := fire(&ff.fs.failSyncIn)
	ff.fs.mu.Unlock()
	if hit {
		return syncError{name: ff.Name()}
	}
	return ff.File.Sync()
}

// writeError, renameError, and syncError are distinct injected-fault types
// that all unwrap to ErrInjected.
type writeError struct{ name string }

func (e writeError) Error() string { return "injected write error on " + e.name }
func (writeError) Unwrap() error   { return ErrInjected }

type renameError struct{ oldpath, newpath string }

func (e renameError) Error() string {
	return "injected rename error " + e.oldpath + " -> " + e.newpath
}
func (renameError) Unwrap() error { return ErrInjected }

type syncError struct{ name string }

func (e syncError) Error() string { return "injected fsync error on " + e.name }
func (syncError) Unwrap() error   { return ErrInjected }

type openError struct{ name string }

func (e openError) Error() string { return "injected open error on " + e.name }
func (openError) Unwrap() error   { return ErrInjected }
