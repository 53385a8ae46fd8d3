package ckpt

// FileStore, the file object layer, and PublishFile: the one non-test file of
// the package that creates, writes or renames files (CI holds it to that).

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FileStore is the epoch layer over one directory per epoch:
//
//	<root>/epoch-000000/rank-000000.shard   (fresh shards only)
//	<root>/epoch-000000/manifest.ckpt       (sealed last)
//
// An epoch directory without a manifest is an aborted commit and is ignored.
// A seal survives power loss: each shard is synced as its writer closes, the
// manifest is written to manifest.ckpt.tmp and synced, the epoch directory
// and the root are synced, the temp is renamed into place, and the epoch
// directory is synced again.
type FileStore struct {
	layer
	Root string
}

// NewFileStore opens (creating if needed) a file store rooted at dir. A
// checkpoint on disk is only ever such a directory: a regular file at dir is
// refused by name.
func NewFileStore(dir string) (*FileStore, error) {
	if st, err := os.Stat(dir); err == nil && !st.IsDir() {
		return nil, fmt.Errorf("ckpt: %s is not a store directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store root: %w", err)
	}
	s := &FileStore{Root: dir}
	s.layer = layer{s}
	return s, nil
}

// EpochDir returns the directory of one epoch.
func (s *FileStore) EpochDir(epoch int) string {
	return filepath.Join(s.Root, fmt.Sprintf("epoch-%06d", epoch))
}

// ShardPath returns the file a fresh shard is written to. Conformance's
// corruption probes use it to damage specific shards in place.
func (s *FileStore) ShardPath(epoch, rank int) string { return s.path(objKey{epoch, rank}) }

// ManifestPath returns an epoch's manifest file.
func (s *FileStore) ManifestPath(epoch int) string { return s.path(objKey{epoch, manifestSlot}) }

func (s *FileStore) path(k objKey) string {
	name := "manifest.ckpt"
	if k.slot >= 0 {
		name = fmt.Sprintf("rank-%06d.shard", k.slot)
	} else if k.slot == manifestTemp {
		name += ".tmp"
	}
	return filepath.Join(s.EpochDir(k.epoch), name)
}

// create streams the object straight into its file: a torn one can only be
// in an unsealed epoch, and VerifyStore attributes any later damage.
func (s *FileStore) create(k objKey) (io.WriteCloser, error) {
	if err := os.MkdirAll(s.EpochDir(k.epoch), 0o755); err != nil {
		return nil, err
	}
	return createSynced(s.path(k))
}

func (s *FileStore) open(k objKey) (io.ReadCloser, error) {
	f, err := os.Open(s.path(k))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// publish syncs the root too: an epoch's directory may be new, or left by a
// crashed process and reused by the next commit of its number.
func (s *FileStore) publish(epoch, from, to int) error {
	return renameDurable(s.path(objKey{epoch, from}), s.path(objKey{epoch, to}), s.Root)
}

// remove syncs nothing: what a power loss brings back is unsealed debris.
func (s *FileStore) remove(epoch int) (int64, int, error) {
	dir := s.EpochDir(epoch)
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, 0, nil
	} else if err != nil {
		return 0, 0, err
	}
	var bytes int64
	for _, ent := range ents {
		if fi, err := ent.Info(); err == nil {
			bytes += fi.Size()
		}
	}
	return bytes, len(ents), os.RemoveAll(dir)
}

func (s *FileStore) list() ([]int, error) {
	ents, err := os.ReadDir(s.Root)
	var out []int
	for _, ent := range ents {
		var e int
		// Strict match: Sscanf tolerates trailing garbage and odd widths, so
		// a stray "epoch-000003.bak" would otherwise alias epoch 3.
		if _, serr := fmt.Sscanf(ent.Name(), "epoch-%d", &e); serr == nil && ent.IsDir() && ent.Name() == fmt.Sprintf("epoch-%06d", e) {
			out = append(out, e)
		}
	}
	sort.Ints(out)
	return out, err
}

// PublishFile replaces the file at path with data so that a power loss
// leaves one of the two whole: data goes to path+".tmp" and is synced, then
// is renamed over path the way a FileStore seal publishes its manifest.
func PublishFile(path string, data []byte) error {
	w, err := createSynced(path + ".tmp")
	if err == nil {
		err = writeClose(w, data)
	}
	if err == nil {
		err = renameDurable(path+".tmp", path)
	}
	return err
}

// syncedFile is a file being written whose Close is the commit point: it
// syncs the bytes to the device before closing, so once Close returns nil
// they survive a power loss that keeps the file's name.
type syncedFile struct{ *os.File }

func createSynced(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return syncedFile{f}, nil
}

func (f syncedFile) Close() error {
	err := f.File.Sync()
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}

// renameDurable renames from over to in one directory. That directory and
// each of parents are synced first, so every name created there before, and
// the directory's own, survives a power loss that keeps the rename; the
// directory is synced again after, so the rename survives one.
func renameDurable(from, to string, parents ...string) error {
	dir := filepath.Dir(to)
	for _, d := range append([]string{dir}, parents...) {
		if err := syncDir(d); err != nil {
			return err
		}
	}
	if err := os.Rename(from, to); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return syncedFile{d}.Close()
}
