package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/lcc"
	"repro/internal/part"
)

// LoadSpec is the wire form of one instance's load half — dataset,
// distribution, storage, memory budget and admission config — and the
// only one: it is the lccd POST /v1/load body and the manifest payload
// alike, and Config is its one translation into the typed form. It
// deliberately holds no graph bytes: the dataset registry (and its disk
// cache) is the source of truth for data; the manifest is the source of
// truth for *which instances exist and how they are configured*.
//
// On disk a manifest is a small framed file (DESIGN.md §8):
//
//	magic    [8]byte  "LCCMANIF"
//	version  uint32   (1)
//	length   uint32   payload byte count
//	payload  JSON-encoded LoadSpec
//	crc      uint32   CRC-32C (Castagnoli) of the payload
//
// — the same checksum discipline as the §9 binary graph container, scaled
// down to a config record. Writes are atomic (tmp + rename), so a crash
// mid-save never leaves a torn manifest; reads verify magic, version,
// framing and checksum and fail with a typed *ManifestError. A corrupt or
// version-skewed manifest is *skipped loudly* during recovery, never
// fatal: losing one instance's config must not take down the fleet.
type LoadSpec struct {
	Name             string `json:"name"`
	Dataset          string `json:"dataset"`
	Ranks            int    `json:"ranks"`
	Scheme           string `json:"scheme"`
	DelegateBytes    int    `json:"delegate_bytes,omitempty"`
	Storage          string `json:"storage,omitempty"`
	MemBudgetBytes   int64  `json:"mem_budget_bytes,omitempty"`
	MaxConcurrent    int    `json:"max_concurrent,omitempty"`
	QueueDepth       int    `json:"queue_depth,omitempty"`
	DefaultTimeoutMS int64  `json:"default_timeout_ms,omitempty"`
	StallTimeoutMS   int64  `json:"stall_timeout_ms,omitempty"`
}

// Config validates the spec and converts it into the instance Config.
// Every failure wraps lcc.ErrInvalidSpec: a missing name or dataset, an
// unknown scheme or storage name, ranks past lcc.MaxRanks, or a negative
// number. The check runs before any snapshot is built.
func (ls *LoadSpec) Config() (Config, error) {
	bad := func(format string, args ...any) (Config, error) {
		return Config{}, fmt.Errorf("%w: %s", lcc.ErrInvalidSpec, fmt.Sprintf(format, args...))
	}
	if ls.Name == "" || ls.Dataset == "" {
		return bad("load needs name and dataset")
	}
	if ls.Ranks < 0 || ls.Ranks > lcc.MaxRanks {
		return bad("ranks %d outside [0, %d]", ls.Ranks, lcc.MaxRanks)
	}
	scheme, err := part.ParseScheme(ls.Scheme)
	if err != nil {
		return bad("%v", err)
	}
	storage, err := lcc.ParseStorageMode(ls.Storage)
	if err != nil {
		return bad("%v", err)
	}
	if min(ls.DelegateBytes, ls.MaxConcurrent, ls.QueueDepth) < 0 ||
		min(ls.MemBudgetBytes, ls.DefaultTimeoutMS, ls.StallTimeoutMS) < 0 {
		return bad("negative size, count or timeout")
	}
	return Config{
		Dataset: ls.Dataset,
		SnapshotOptions: lcc.SnapshotOptions{
			Ranks:          ls.Ranks,
			Scheme:         scheme,
			DelegateBytes:  ls.DelegateBytes,
			Storage:        storage,
			MemBudgetBytes: ls.MemBudgetBytes,
		},
		MaxConcurrent:  ls.MaxConcurrent,
		QueueDepth:     ls.QueueDepth,
		DefaultTimeout: time.Duration(ls.DefaultTimeoutMS) * time.Millisecond,
		StallTimeout:   time.Duration(ls.StallTimeoutMS) * time.Millisecond,
	}, nil
}

var manifestMagic = [8]byte{'L', 'C', 'C', 'M', 'A', 'N', 'I', 'F'}

// ManifestVersion is the current manifest format version. Files carrying
// any other version are skipped with ErrManifestVersion during recovery.
const ManifestVersion = 1

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// Typed manifest failure classes, wrapped by *ManifestError.
var (
	// ErrManifestCorrupt marks a manifest that failed a framing, magic or
	// checksum check.
	ErrManifestCorrupt = errors.New("serve: corrupt manifest")
	// ErrManifestVersion marks a manifest written by a different format
	// version.
	ErrManifestVersion = errors.New("serve: manifest version mismatch")
)

// ManifestError reports one unreadable manifest file. Recovery collects
// them instead of failing: errors.Is sees the wrapped class
// (ErrManifestCorrupt / ErrManifestVersion).
type ManifestError struct {
	Path   string
	Reason string
	Err    error // ErrManifestCorrupt or ErrManifestVersion
}

func (e *ManifestError) Error() string {
	return fmt.Sprintf("serve: manifest %s: %s", filepath.Base(e.Path), e.Reason)
}

func (e *ManifestError) Unwrap() error { return e.Err }

// ManifestStore persists instance manifests in one directory — the
// daemon's -state-dir. All methods are safe for concurrent use in the
// sense the filesystem provides: saves are atomic renames, loads verify
// checksums, and a reader never observes a torn file.
type ManifestStore struct {
	dir string
}

// NewManifestStore opens (creating if needed) the state directory.
func NewManifestStore(dir string) (*ManifestStore, error) {
	if dir == "" {
		return nil, errors.New("serve: manifest store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ManifestStore{dir: dir}, nil
}

// Dir returns the state directory the store persists into.
func (ms *ManifestStore) Dir() string { return ms.dir }

// Path returns the file the named instance's manifest persists to. The
// instance name is sanitized for the filesystem and disambiguated with an
// FNV hash of the raw name, so distinct names never collide.
func (ms *ManifestStore) Path(name string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	if len(safe) > 64 {
		safe = safe[:64]
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return filepath.Join(ms.dir, fmt.Sprintf("%s-%016x.lcm", safe, h.Sum64()))
}

// Save persists the manifest atomically AND durably: the framed file is
// written to a temp name in the same directory, fsynced, renamed into
// place, and the directory itself is fsynced. The rename gives atomicity
// (a concurrent reader, or a crash mid-write, sees either the old
// manifest or the new one, never a torn hybrid); the two syncs give
// crash-consistency — without the file sync a power loss after the
// rename can surface a zero-length or garbage file (the rename commits
// the name before the data reaches disk), and without the directory sync
// the rename itself can be lost.
func (ms *ManifestStore) Save(m *LoadSpec) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 16+len(payload)+4)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, ManifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, manifestCRC))

	path := ms.Path(m.Name)
	tmp, err := os.CreateTemp(ms.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(ms.dir)
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Filesystems that refuse to sync directories (some network mounts)
// degrade to rename-only atomicity rather than failing the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// Remove deletes the named instance's manifest. A missing file is not an
// error: removal is idempotent.
func (ms *ManifestStore) Remove(name string) error {
	err := os.Remove(ms.Path(name))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Load reads and verifies one manifest file.
func (ms *ManifestStore) Load(path string) (*LoadSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &ManifestError{Path: path, Reason: err.Error(), Err: ErrManifestCorrupt}
	}
	if len(raw) < 20 {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("truncated: %d bytes", len(raw)), Err: ErrManifestCorrupt}
	}
	if *(*[8]byte)(raw[:8]) != manifestMagic {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("bad magic %q", raw[:8]), Err: ErrManifestCorrupt}
	}
	if v := binary.LittleEndian.Uint32(raw[8:]); v != ManifestVersion {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("version %d (want %d)", v, ManifestVersion), Err: ErrManifestVersion}
	}
	length := binary.LittleEndian.Uint32(raw[12:])
	if uint64(len(raw)) != 16+uint64(length)+4 {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("framing: %d bytes for payload length %d", len(raw), length), Err: ErrManifestCorrupt}
	}
	payload := raw[16 : 16+length]
	stored := binary.LittleEndian.Uint32(raw[16+length:])
	if got := crc32.Checksum(payload, manifestCRC); got != stored {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", stored, got), Err: ErrManifestCorrupt}
	}
	var m LoadSpec
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, &ManifestError{Path: path, Reason: fmt.Sprintf("payload: %v", err), Err: ErrManifestCorrupt}
	}
	if m.Name == "" || m.Dataset == "" {
		return nil, &ManifestError{Path: path, Reason: "payload missing name or dataset", Err: ErrManifestCorrupt}
	}
	return &m, nil
}

// LoadAll reads every manifest in the state directory, sorted by instance
// name. Unreadable files — corrupt, truncated, version-skewed — are
// returned as typed *ManifestError values alongside the good manifests:
// recovery reports them loudly and restores everything else.
func (ms *ManifestStore) LoadAll() ([]*LoadSpec, []*ManifestError) {
	entries, err := os.ReadDir(ms.dir)
	if err != nil {
		return nil, []*ManifestError{{Path: ms.dir, Reason: err.Error(), Err: ErrManifestCorrupt}}
	}
	var (
		manifests []*LoadSpec
		skipped   []*ManifestError
	)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lcm") {
			continue
		}
		m, err := ms.Load(filepath.Join(ms.dir, e.Name()))
		if err != nil {
			var me *ManifestError
			if !errors.As(err, &me) {
				me = &ManifestError{Path: e.Name(), Reason: err.Error(), Err: ErrManifestCorrupt}
			}
			skipped = append(skipped, me)
			continue
		}
		manifests = append(manifests, m)
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Name < manifests[j].Name })
	return manifests, skipped
}
