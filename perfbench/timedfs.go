package main

import (
	iofs "io/fs"
	"sync"
	"time"

	"rppm/internal/storefs"
)

// storeOp is one completed artifact transfer: a file opened, read and
// closed, or a file written, closed and published by rename.
type storeOp struct {
	write bool
	path  string // the artifact's published name
	dur   time.Duration
	bytes int64
}

// storeStats are the timing wrapper's totals: FS-level calls, and the
// completed transfers with their durations. A transfer's duration is the
// time spent inside the inner FS's calls for it, so work the caller does
// between calls (decoding, encoding) is not counted.
type storeStats struct {
	calls                   int
	reads, writes           int
	readTime, writeTime     time.Duration
	bytesRead, bytesWritten int64
}

// timedFS is a storefs.FS that times every call into an inner FS. It
// returns the inner FS's results — errors included — unchanged, so the
// store's retry, quarantine and breaker logic sees exactly what it would
// see without the wrapper.
type timedFS struct {
	inner   storefs.FS
	observe func(storeOp) // optional; called after each completed transfer

	mu      sync.Mutex
	st      storeStats
	pending map[string]storeOp // closed temp files awaiting their rename
}

func newTimedFS(inner storefs.FS, observe func(storeOp)) *timedFS {
	return &timedFS{inner: inner, observe: observe, pending: map[string]storeOp{}}
}

func (f *timedFS) stats() storeStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *timedFS) call() {
	f.mu.Lock()
	f.st.calls++
	f.mu.Unlock()
}

// complete counts a finished transfer and reports it to observe.
func (f *timedFS) complete(op storeOp) {
	f.mu.Lock()
	if op.write {
		f.st.writes++
		f.st.writeTime += op.dur
		f.st.bytesWritten += op.bytes
	} else {
		f.st.reads++
		f.st.readTime += op.dur
		f.st.bytesRead += op.bytes
	}
	f.mu.Unlock()
	if f.observe != nil {
		f.observe(op)
	}
}

func (f *timedFS) open(name string, write bool, fn func() (storefs.File, error)) (storefs.File, error) {
	t := time.Now()
	file, err := fn()
	d := time.Since(t)
	f.call()
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f, op: storeOp{write: write, path: name, dur: d}}, nil
}

func (f *timedFS) Open(name string) (storefs.File, error) {
	return f.open(name, false, func() (storefs.File, error) { return f.inner.Open(name) })
}

func (f *timedFS) Create(name string) (storefs.File, error) {
	return f.open(name, true, func() (storefs.File, error) { return f.inner.Create(name) })
}

func (f *timedFS) CreateTemp(dir, pattern string) (storefs.File, error) {
	return f.open("", true, func() (storefs.File, error) { return f.inner.CreateTemp(dir, pattern) })
}

// Rename publishes a written temp file: the transfer completes under its
// final name.
func (f *timedFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	d := time.Since(t)
	f.call()
	f.mu.Lock()
	op, ok := f.pending[oldpath]
	delete(f.pending, oldpath)
	f.mu.Unlock()
	if ok {
		op.path = newpath
		op.dur += d
		f.complete(op)
	}
	return err
}

// Remove deletes a file; removing a written temp file that was never
// published (a failed spill) completes its transfer under the temp name.
func (f *timedFS) Remove(name string) error {
	t := time.Now()
	err := f.inner.Remove(name)
	d := time.Since(t)
	f.call()
	f.mu.Lock()
	op, ok := f.pending[name]
	delete(f.pending, name)
	f.mu.Unlock()
	if ok {
		op.dur += d
		f.complete(op)
	}
	return err
}

func (f *timedFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	ents, err := f.inner.ReadDir(name)
	f.call()
	return ents, err
}

// timedFile times the calls on one open file.
type timedFile struct {
	storefs.File
	fs *timedFS
	op storeOp
}

func (t *timedFile) Read(p []byte) (int, error) {
	s := time.Now()
	n, err := t.File.Read(p)
	t.op.dur += time.Since(s)
	t.op.bytes += int64(n)
	return n, err
}

func (t *timedFile) Write(p []byte) (int, error) {
	s := time.Now()
	n, err := t.File.Write(p)
	t.op.dur += time.Since(s)
	t.op.bytes += int64(n)
	return n, err
}

func (t *timedFile) Sync() error {
	s := time.Now()
	err := t.File.Sync()
	t.op.dur += time.Since(s)
	return err
}

// Close ends the transfer of a read or a Create; a temp file's transfer
// ends when it is renamed into place or removed.
func (t *timedFile) Close() error {
	s := time.Now()
	err := t.File.Close()
	t.op.dur += time.Since(s)
	if t.op.write && t.op.path == "" {
		t.fs.mu.Lock()
		t.fs.pending[t.File.Name()] = t.op
		t.fs.mu.Unlock()
		return err
	}
	t.fs.complete(t.op)
	return err
}
