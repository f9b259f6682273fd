package store

// The index-journal and entry-file formats, and the checked-line codec
// the journal shares with the checkpoint ledger (ckpt.go). Both
// formats are line-headed text
// so a human (and the crash tests) can read a store directory with
// cat, and both are self-checking so a torn write is detected rather
// than believed.
//
// Journal line (one op each, newline-terminated):
//
//	v1 put <key> <size> <sha256hex> <crc32hex>
//	v1 get <key> 0 - <crc32hex>
//	v1 del <key> 0 - <crc32hex>
//
// The trailing crc32 (IEEE) covers the five preceding fields exactly
// as written. A line that is short, malformed, mischecksummed, or
// missing its newline — the shape a kill mid-append leaves — is
// dropped during replay; replay continues with the next line, so one
// bad line never takes out the rest of the index.
//
// Entry file:
//
//	mhpc-store-entry/v1 <key> <size> <sha256hex>\n
//	<payload bytes>
//
// The payload must match both the declared size and the declared
// SHA-256, and the header's key must match the file name and the
// journal's record — four ways a truncated or bit-flipped entry
// fails closed.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strconv"
	"strings"
)

// entryMagic heads every entry file.
const entryMagic = "mhpc-store-entry/v1"

// journalRec is one surviving index record after replay: a live key
// with the size and checksum its last put declared.
type journalRec struct {
	key  string
	size int64
	sum  string
}

// validKey reports whether key is safe as both a journal token and a
// file name: non-empty lowercase hex, at most 64 characters. Content
// addresses (truncated SHA-256 hex) always qualify; anything else —
// including path separators smuggled in through a corrupt journal —
// does not.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkedLine renders one self-checking line, the format shared by
// the index journal and the checkpoint ledger: the fields joined by
// spaces, then the crc32 (IEEE) of exactly those bytes as eight hex
// digits, then a newline.
func checkedLine(fields ...string) []byte {
	body := strings.Join(fields, " ")
	return fmt.Appendf(nil, "%s %08x\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// parseChecked splits one line (without its newline) into its n body
// fields, or ok=false unless a crc that matches them follows: torn and
// bit-flipped lines fail here, each format checks its own fields.
func parseChecked(line string, n int) (fields []string, ok bool) {
	f := strings.Split(line, " ")
	if len(f) != n+1 {
		return nil, false
	}
	body := line[:len(line)-len(f[n])-1]
	crc, err := strconv.ParseUint(f[n], 16, 32)
	if err != nil || uint32(crc) != crc32.ChecksumIEEE([]byte(body)) {
		return nil, false
	}
	return f[:n], true
}

// replayLines feeds each line of the file at path to parse, in order,
// and counts the lines it rejects. A missing file replays nothing. A
// line longer than max bytes or a read error ends replay and counts as
// one more dropped line: everything before it already parsed, the tail
// is damage. Only a failed open is an error.
func replayLines(path string, max int, parse func(line string) bool) (dropped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 4096), max)
	for sc.Scan() {
		if !parse(sc.Text()) {
			dropped++
		}
	}
	if sc.Err() != nil {
		dropped++
	}
	return dropped, nil
}

func putLine(key string, size int64, sum string) []byte {
	return checkedLine("v1", "put", key, strconv.FormatInt(size, 10), sum)
}
func touchLine(key string) []byte { return checkedLine("v1", "get", key, "0", "-") }
func delLine(key string) []byte   { return checkedLine("v1", "del", key, "0", "-") }

// parseJournalLine decodes one line (without its newline). It returns
// ok=false for anything putLine, touchLine or delLine did not render.
func parseJournalLine(line string) (op string, rec journalRec, ok bool) {
	f, ok := parseChecked(line, 5)
	if !ok || f[0] != "v1" {
		return "", journalRec{}, false
	}
	op = f[1]
	rec.key = f[2]
	if !validKey(rec.key) {
		return "", journalRec{}, false
	}
	switch op {
	case "put":
		size, err := strconv.ParseInt(f[3], 10, 64)
		rec.size, rec.sum = size, f[4]
		if err != nil || size < 0 || len(rec.sum) != 64 || !validKey(rec.sum) {
			return "", journalRec{}, false
		}
	case "get", "del":
		if f[3] != "0" || f[4] != "-" {
			return "", journalRec{}, false
		}
	default:
		return "", journalRec{}, false
	}
	return op, rec, true
}

// maxJournalLine bounds one journal line during replay; real lines
// are ~120 bytes, so anything near the cap is corruption.
const maxJournalLine = 1 << 16

// readJournal replays path into the surviving records in LRU -> MRU
// order, plus the count of dropped (torn/malformed) lines. A missing
// journal is an empty store, not an error; replay itself never fails
// on content — only the open can error.
func readJournal(path string) (recs []journalRec, dropped int, err error) {
	// Replay into an order-tracking map: put inserts/refreshes at MRU,
	// get touches to MRU, del removes; last op wins for duplicates.
	type node struct {
		rec journalRec
		seq int
	}
	live := map[string]*node{}
	seq := 0
	dropped, err = replayLines(path, maxJournalLine, func(line string) bool {
		op, rec, ok := parseJournalLine(line)
		if !ok {
			return false
		}
		seq++
		switch op {
		case "put":
			live[rec.key] = &node{rec: rec, seq: seq}
		case "get":
			if n, exists := live[rec.key]; exists {
				n.seq = seq
			}
		case "del":
			delete(live, rec.key)
		}
		return true
	})
	if err != nil {
		return nil, 0, err
	}

	order := make([]*node, 0, len(live))
	for _, n := range live {
		order = append(order, n)
	}
	// Ascending by last-touch sequence: LRU first.
	slices.SortFunc(order, func(a, b *node) int { return a.seq - b.seq })
	for _, n := range order {
		recs = append(recs, n.rec)
	}
	return recs, dropped, nil
}

// encodeEntry renders one entry file: checked header, then payload.
func encodeEntry(key string, data []byte, sumHex string) []byte {
	hdr := fmt.Sprintf("%s %s %d %s\n", entryMagic, key, len(data), sumHex)
	out := make([]byte, 0, len(hdr)+len(data))
	out = append(out, hdr...)
	return append(out, data...)
}

// parseEntry splits and validates an entry file's header, returning
// the declared key, the payload, and the declared checksum. The
// payload's actual hash is the caller's check (loadEntry) — this
// function only enforces structure: magic, field count, and that the
// declared size matches the payload present.
func parseEntry(raw []byte) (key string, payload []byte, sumHex string, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return "", nil, "", fmt.Errorf("store: entry missing header")
	}
	f := strings.Split(string(raw[:nl]), " ")
	if len(f) != 4 || f[0] != entryMagic {
		return "", nil, "", fmt.Errorf("store: malformed entry header")
	}
	size, perr := strconv.ParseInt(f[2], 10, 64)
	if perr != nil || size < 0 {
		return "", nil, "", fmt.Errorf("store: bad entry size")
	}
	payload = raw[nl+1:]
	if int64(len(payload)) != size {
		return "", nil, "", fmt.Errorf("store: entry truncated: have %d bytes, header says %d", len(payload), size)
	}
	if !validKey(f[1]) || len(f[3]) != 64 {
		return "", nil, "", fmt.Errorf("store: bad entry key or checksum")
	}
	return f[1], payload, f[3], nil
}

// sumHexOf returns the hex SHA-256 of data: the checksum every entry
// file, journal put line and ledger line declares.
func sumHexOf(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}
