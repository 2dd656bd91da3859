package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"fadingcr/internal/obs"
)

// Binary trace layout (little-endian), the compact option for large runs —
// fixed-width records at roughly a third of the NDJSON size and no JSON
// encode/decode on either side:
//
//	magic   "CRTRACE" + schema version byte
//	header  u32 length + the NDJSON header line (header metadata is
//	        one-off and string-bearing; reusing the JSON form keeps the
//	        two formats' headers trivially equivalent)
//	records until EOF, each: kind u8 + kind-specific payload:
//	  round     round i32, active i32, tx i32, recv i32
//	  tx        round i32, node i32
//	  recv      round i32, node i32, from i32, sinr f64, margin f64
//	  knockout  round i32, node i32
//	  classes   round i32, count i32, count × i32
//	  result    solved u8, rounds i32, winner i32, transmissions i64
//
// Absent annotations keep their in-memory encoding (NaN sinr, −1 active):
// the reader and writer round-trip records bit-exactly, so Diff semantics
// are identical across formats. The reader accepts only what the writer
// emits: a canonical header line and a result byte of 0 or 1.
var binaryMagic = [8]byte{'C', 'R', 'T', 'R', 'A', 'C', 'E', SchemaVersion}

// WriteBinary serialises the trace's header and records in the compact
// binary format.
func (t *Trace) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	var hbuf bytes.Buffer
	he := obs.NewLineEncoder(&hbuf)
	writeHeader(he, &t.Header)
	var scratch [32]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(hbuf.Len()))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	if _, err := bw.Write(hbuf.Bytes()); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	le := binary.LittleEndian
	for _, rec := range t.Records {
		scratch[0] = byte(rec.Kind)
		n := 1
		putI32 := func(v int32) { le.PutUint32(scratch[n:n+4], uint32(v)); n += 4 }
		switch rec.Kind {
		case KindRound:
			putI32(rec.Round)
			putI32(rec.Active)
			putI32(rec.Tx)
			putI32(rec.Recv)
		case KindTransmit, KindKnockout:
			putI32(rec.Round)
			putI32(rec.Node)
		case KindReception:
			putI32(rec.Round)
			putI32(rec.Node)
			putI32(rec.From)
			le.PutUint64(scratch[n:n+8], math.Float64bits(rec.SINR))
			n += 8
		case KindClasses:
			putI32(rec.Round)
			putI32(rec.Len)
		case KindResult:
			if rec.Solved {
				scratch[1] = 1
			} else {
				scratch[1] = 0
			}
			n = 2
			putI32(rec.Round)
			putI32(rec.Node)
			le.PutUint64(scratch[n:n+8], uint64(rec.Transmissions))
			n += 8
		default:
			return fmt.Errorf("trace: write binary: unknown record kind %d", rec.Kind)
		}
		if _, err := bw.Write(scratch[:n]); err != nil {
			return fmt.Errorf("trace: write binary: %w", err)
		}
		// Variable-length tails.
		switch rec.Kind {
		case KindReception:
			le.PutUint64(scratch[:8], math.Float64bits(rec.Margin))
			if _, err := bw.Write(scratch[:8]); err != nil {
				return fmt.Errorf("trace: write binary: %w", err)
			}
		case KindClasses:
			for _, s := range t.classSizes[rec.Off : rec.Off+rec.Len] {
				le.PutUint32(scratch[:4], uint32(s))
				if _, err := bw.Write(scratch[:4]); err != nil {
					return fmt.Errorf("trace: write binary: %w", err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	return nil
}

// maxBinaryHeaderSize bounds the declared JSON header length of a binary
// trace the way maxBundleFileSize bounds bundle payloads: a header is part
// of a trace file, so it can be no larger than one.
const maxBinaryHeaderSize = maxBundleFileSize

// readBinary parses a binary trace stream positioned after format sniffing
// (br still holds the full stream including the magic).
func readBinary(br *bufio.Reader) (*Trace, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read binary magic: %w", err)
	}
	if !bytes.Equal(magic[:7], binaryMagic[:7]) {
		return nil, fmt.Errorf("trace: bad binary magic %q", magic[:7])
	}
	if magic[7] != SchemaVersion {
		return nil, fmt.Errorf("trace: unsupported schema version %d (reader supports %d)", magic[7], SchemaVersion)
	}
	le := binary.LittleEndian
	var scratch [32]byte
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", err)
	}
	hlen := le.Uint32(scratch[:4])
	if hlen > maxBinaryHeaderSize {
		return nil, fmt.Errorf("trace: binary header declares %d bytes (max %d)", hlen, maxBinaryHeaderSize)
	}
	// Read what is there rather than allocating the declared length up
	// front, so a truncated stream costs memory in proportion to its size.
	hdr, err := io.ReadAll(io.LimitReader(br, int64(hlen)))
	if err == nil && len(hdr) < int(hlen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("trace: read binary header: %w", err)
	}
	var l jsonLine
	if err := json.Unmarshal(hdr, &l); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	h, err := headerFromLine(&l)
	if err != nil {
		return nil, err
	}
	if !obs.Canonical(hdr, func(e *obs.LineEncoder) error { writeHeader(e, &h); return e.Err() }) {
		return nil, fmt.Errorf("trace: binary header is not in canonical form")
	}
	t := &Trace{Header: h}
	for {
		kb, err := br.ReadByte()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: read binary record: %w", err)
		}
		rec := Record{Kind: Kind(kb)}
		read := func(n int) error {
			_, err := io.ReadFull(br, scratch[:n])
			return err
		}
		getI32 := func(off int) int32 { return int32(le.Uint32(scratch[off : off+4])) }
		switch rec.Kind {
		case KindRound:
			if err := read(16); err != nil {
				return nil, fmt.Errorf("trace: read round record: %w", err)
			}
			rec.Round, rec.Active, rec.Tx, rec.Recv = getI32(0), getI32(4), getI32(8), getI32(12)
		case KindTransmit, KindKnockout:
			if err := read(8); err != nil {
				return nil, fmt.Errorf("trace: read %s record: %w", rec.Kind, err)
			}
			rec.Round, rec.Node = getI32(0), getI32(4)
		case KindReception:
			if err := read(28); err != nil {
				return nil, fmt.Errorf("trace: read recv record: %w", err)
			}
			rec.Round, rec.Node, rec.From = getI32(0), getI32(4), getI32(8)
			rec.SINR = math.Float64frombits(le.Uint64(scratch[12:20]))
			rec.Margin = math.Float64frombits(le.Uint64(scratch[20:28]))
		case KindClasses:
			if err := read(8); err != nil {
				return nil, fmt.Errorf("trace: read classes record: %w", err)
			}
			rec.Round, rec.Len = getI32(0), getI32(4)
			if rec.Len < 0 {
				return nil, fmt.Errorf("trace: classes record with negative count %d", rec.Len)
			}
			rec.Off = int32(len(t.classSizes))
			for i := int32(0); i < rec.Len; i++ {
				if err := read(4); err != nil {
					return nil, fmt.Errorf("trace: read classes record: %w", err)
				}
				t.classSizes = append(t.classSizes, getI32(0))
			}
		case KindResult:
			if err := read(17); err != nil {
				return nil, fmt.Errorf("trace: read result record: %w", err)
			}
			if scratch[0] > 1 {
				return nil, fmt.Errorf("trace: result record solved byte %d, want 0 or 1", scratch[0])
			}
			rec.Solved = scratch[0] == 1
			rec.Round, rec.Node = getI32(1), getI32(5)
			rec.Transmissions = int64(le.Uint64(scratch[9:17]))
		default:
			return nil, fmt.Errorf("trace: unknown record kind %d", kb)
		}
		t.Records = append(t.Records, rec)
	}
}

// Read parses a trace stream, sniffing the format: binary streams open with
// the CRTRACE magic, NDJSON streams with '{'.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if first[0] == '{' {
		return readNDJSON(br)
	}
	return readBinary(br)
}
