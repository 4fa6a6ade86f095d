package lake

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The manifest is the lake's crash-safe source of truth for which
// segment files exist: an append-only text file of "add <name>" /
// "del <name>" / "swap <new> <old>... ;" lines, fsync'd after every
// append. A torn final line (crash mid-append, no trailing newline) is
// truncated away before replay, so it neither replays as a garbage
// entry nor has the next append concatenated onto it. Recovery then
// replays complete lines in order; a segment file present on disk but
// absent from the manifest (crash between create and add) is garbage
// and removed, a manifest entry whose file is missing is tolerated and
// dropped. The swap line is compaction's atomic commit: it carries a
// trailing ";" sentinel as defense in depth, so even a full-looking
// but uncommitted swap is ignored wholesale — replay then still sees
// the victims, and the half-registered merged file is orphan-removed.

const manifestName = "MANIFEST"

type manifest struct {
	f *os.File
}

// openManifest opens (creating if needed) the manifest and returns the
// live segment names in add order. A name that is not a segment name
// (parseSegName) is never registered: the manifest is read back from
// disk, and a name is joined onto the lake directory to open its file.
func openManifest(dir string) (*manifest, []string, error) {
	path := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// A crash mid-append leaves a torn final line (no trailing newline).
	// Drop it before replay: a partial "add cell-00001/seg-" would
	// otherwise replay as a garbage entry, and a later append would
	// concatenate onto it, corrupting that registration too.
	if err := trimTornTail(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	live := make(map[string]int)
	var order []string
	add := func(name string) {
		if _, _, err := parseSegName(name); err != nil {
			return
		}
		if _, dup := live[name]; !dup {
			live[name] = len(order)
			order = append(order, name)
		}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue // blank, or torn final line from a crash mid-append
		}
		switch fields[0] {
		case "add":
			add(fields[1])
		case "del":
			delete(live, fields[1])
		case "swap":
			if fields[len(fields)-1] != ";" {
				continue // torn swap line: not committed
			}
			for _, old := range fields[2 : len(fields)-1] {
				delete(live, old)
			}
			add(fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, err
	}
	// The replay scanner buffers reads, so the file offset may sit
	// anywhere; appends rely on it being exactly at EOF.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	names := make([]string, 0, len(live))
	for _, name := range order {
		if _, ok := live[name]; ok {
			names = append(names, name)
		}
	}
	return &manifest{f: f}, names, nil
}

// trimTornTail truncates a final line with no trailing newline (a
// crash mid-append) back to the last complete line. Uses only ReadAt,
// so the caller's file offset is untouched.
func trimTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	cut := int64(0)
	buf := make([]byte, 4096)
	for end := size; end > 0; {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			cut = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if err := f.Truncate(cut); err != nil {
		return err
	}
	return f.Sync()
}

func (m *manifest) append(op, name string) error {
	if _, err := fmt.Fprintf(m.f, "%s %s\n", op, name); err != nil {
		return err
	}
	return m.f.Sync()
}

func (m *manifest) add(name string) error { return m.append("add", name) }
func (m *manifest) del(name string) error { return m.append("del", name) }

// swap atomically replaces olds with new: one line, committed by its
// trailing sentinel.
func (m *manifest) swap(newName string, olds []string) error {
	if _, err := fmt.Fprintf(m.f, "swap %s %s ;\n", newName, strings.Join(olds, " ")); err != nil {
		return err
	}
	return m.f.Sync()
}

func (m *manifest) close() error {
	if m.f == nil {
		return nil
	}
	err := m.f.Close()
	m.f = nil
	return err
}
