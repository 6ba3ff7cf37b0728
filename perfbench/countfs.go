package main

import (
	"os"
	"sync/atomic"

	"astrx/internal/durable"
)

// countingFS is the file system under the in-process daemon's job store
// and result cache. Every operation goes to the real file system in the
// checkout, except that the device flushes (File.Sync, SyncDir) are
// counted and skipped: on the shared virtual disk this benchmark was
// tuned on, one write+fsync+rename+dir-fsync round took 0.5 ms at the
// median and 8 ms at p90, in phases lasting seconds, which swung the
// cache hits' median latency between 4 and 9 ms from run to run. The
// sync count per job (durable.syncs_per_job) is exact instead, and the
// bytes written per job are counted at the same seam.
type countingFS struct {
	durable.FS
	bytes, syncs atomic.Int64
}

func newCountingFS() *countingFS { return &countingFS{FS: durable.OS} }

func (c *countingFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	c.bytes.Add(int64(len(data)))
	return c.FS.WriteFile(name, data, perm)
}

func (c *countingFS) SyncDir(string) error {
	c.syncs.Add(1)
	return nil
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return nil
}
