package acasx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary logic-table format:
//
//	magic "ACXT" | version u32 | config (13 float64/int64 fields) |
//	horizon u32 | per-slice length u32 | Q data float64 LE | crc32 of all
//	preceding bytes
//
// The CRC guards against the truncated/corrupt table files a deployed
// system must reject.

const (
	tableMagic   = "ACXT"
	tableVersion = 1
)

// ErrBadTable is wrapped by all deserialization failures.
var ErrBadTable = errors.New("acasx: bad table file")

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// configFields returns the numeric config fields in serialization order.
func configFields(c *Config) []*float64 {
	return []*float64{
		&c.Grid.HMax, &c.Grid.RateMax,
		&c.Dynamics.Dt, &c.Dynamics.OwnAccelSigma, &c.Dynamics.IntruderAccelSigma,
		&c.Dynamics.ComplianceSigma, &c.Dynamics.Accel, &c.Dynamics.StrengthenAccel,
		&c.Cost.Collision, &c.Cost.NewAlert, &c.Cost.ActivePerStep,
		&c.Cost.Strengthen, &c.Cost.Reversal, &c.Cost.NMACVertical,
		&c.DMOD,
	}
}

func configInts(c *Config) []*int {
	return []*int{&c.Grid.NumH, &c.Grid.NumRate, &c.Grid.Horizon}
}

// WriteTo serializes the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw}
	var written int64

	put := func(v any) error {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return err
		}
		written += int64(binary.Size(v))
		return nil
	}

	if _, err := cw.Write([]byte(tableMagic)); err != nil {
		return written, err
	}
	written += 4
	if err := put(uint32(tableVersion)); err != nil {
		return written, err
	}
	cfg := t.cfg
	for _, f := range configFields(&cfg) {
		if err := put(*f); err != nil {
			return written, err
		}
	}
	for _, n := range configInts(&cfg) {
		if err := put(int64(*n)); err != nil {
			return written, err
		}
	}
	var flags uint8
	if cfg.UseVerticalTau {
		flags |= 1
	}
	if err := put(flags); err != nil {
		return written, err
	}
	if err := put(uint32(len(t.q))); err != nil {
		return written, err
	}
	if err := put(uint32(t.stateSize() * NumAdvisories)); err != nil {
		return written, err
	}
	// Bulk-encode each Q slice into one buffer and issue a single Write
	// per slice: one 8-byte write per float64 costs an order of magnitude
	// more in writer and CRC bookkeeping than the encoding itself.
	var buf []byte
	for _, slice := range t.q {
		if need := 8 * len(slice); cap(buf) < need {
			buf = make([]byte, need)
		} else {
			buf = buf[:need]
		}
		for i, v := range slice {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		n, err := cw.Write(buf)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	// Trailing CRC of everything written so far (not CRC'd itself).
	crc := cw.crc
	if err := binary.Write(bw, binary.LittleEndian, crc); err != nil {
		return written, err
	}
	written += 4
	return written, bw.Flush()
}

// ReadTable deserializes a table, verifying magic, version, structural
// consistency and the trailing checksum.
func ReadTable(r io.Reader) (*Table, error) {
	cr := &crcReader{r: bufio.NewReaderSize(r, 1<<20)}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrBadTable, err)
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadTable, magic)
	}
	var version uint32
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrBadTable, err)
	}
	if version != tableVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTable, version)
	}
	var cfg Config
	for _, f := range configFields(&cfg) {
		if err := binary.Read(cr, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("%w: reading config: %v", ErrBadTable, err)
		}
	}
	for _, n := range configInts(&cfg) {
		var v int64
		if err := binary.Read(cr, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("%w: reading config: %v", ErrBadTable, err)
		}
		*n = int(v)
	}
	var flags uint8
	if err := binary.Read(cr, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("%w: reading flags: %v", ErrBadTable, err)
	}
	cfg.UseVerticalTau = flags&1 != 0
	// Bit 2 marked tables written by older builds that also carried an
	// int16 compressed copy of the Q values. Such files still hold the full
	// float64 payload, so they load as plain tables; WriteTo never sets it.
	var slices, sliceLen uint32
	if err := binary.Read(cr, binary.LittleEndian, &slices); err != nil {
		return nil, fmt.Errorf("%w: reading slice count: %v", ErrBadTable, err)
	}
	if err := binary.Read(cr, binary.LittleEndian, &sliceLen); err != nil {
		return nil, fmt.Errorf("%w: reading slice length: %v", ErrBadTable, err)
	}
	const maxEntries = 1 << 28 // 2 GiB of float64s: refuse absurd files
	if slices == 0 || sliceLen == 0 || int64(slices)*int64(sliceLen) > maxEntries {
		return nil, fmt.Errorf("%w: implausible geometry %dx%d", ErrBadTable, slices, sliceLen)
	}
	t := &Table{cfg: cfg, q: make([][]float64, slices)}
	buf := make([]byte, 8*int(sliceLen))
	for k := range t.q {
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, fmt.Errorf("%w: reading slice %d: %v", ErrBadTable, k, err)
		}
		slice := make([]float64, sliceLen)
		for i := range slice {
			slice[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		t.q[k] = slice
	}
	wantCRC := cr.crc
	var gotCRC uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &gotCRC); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %v", ErrBadTable, err)
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (file %08x, computed %08x)", ErrBadTable, gotCRC, wantCRC)
	}
	if err := t.validateLoaded(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	return t, nil
}

// Save writes the table to a file.
func (t *Table) Save(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("acasx: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("acasx: save: %w", cerr)
		}
	}()
	if _, err := t.WriteTo(f); err != nil {
		return fmt.Errorf("acasx: save: %w", err)
	}
	return nil
}

// LoadTable reads a table from a file.
func LoadTable(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("acasx: load: %w", err)
	}
	defer f.Close()
	return ReadTable(f)
}
