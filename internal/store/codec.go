package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
)

// Entry framing. Every stored result is one self-validating frame:
//
//	offset  size  field
//	0       4     magic "MVR\x01" (format id + frame-layout revision)
//	4       1     payload version (codecVersion; bump on payload changes)
//	5       4     payload length, uint32 little-endian
//	9       4     CRC32C (Castagnoli) of the payload, little-endian
//	13      n     payload
//
// The length catches torn writes (a crashed writer that never completed
// the frame), the checksum catches bit rot, and the version byte lets the
// payload encoding evolve without old frames ever being misdecoded: a
// mismatch is reported as ErrCodecVersion, which the store treats as a
// plain miss (recompute and overwrite), not as corruption.
//
// The payload itself is a deterministic binary encoding of core.Result —
// floats as exact IEEE-754 bits, durations as varint nanoseconds, curve
// times delta-encoded — so decode(encode(r)) reproduces r exactly and a
// result served from disk is byte-for-byte interchangeable with a
// recomputed one.
const (
	codecMagic   = "MVR\x01"
	codecVersion = 2
	headerSize   = 4 + 1 + 4 + 4
)

// ErrCorrupt marks a frame that failed validation: truncated, wrong
// length, checksum mismatch, or an undecodable payload. The store
// quarantines such entries.
var ErrCorrupt = errors.New("store: corrupt entry")

// ErrCodecVersion marks a structurally sound frame written by a different
// codec version. Not corruption: the store recomputes and overwrites.
var ErrCodecVersion = errors.New("store: incompatible codec version")

// crcTable is the Castagnoli (CRC32C) polynomial table, the checksum with
// hardware support on every platform this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeResult renders res as one framed store entry. The encoding is
// deterministic: the same result always produces the same bytes.
func EncodeResult(res *core.Result) ([]byte, error) {
	if res == nil {
		return nil, errors.New("store: encode nil result")
	}
	var e encoder
	e.curve(res.Infections)
	e.varint(int64(res.FinalInfected))
	if err := e.uint64Struct(reflect.ValueOf(res.Network)); err != nil {
		return nil, err
	}
	if err := e.uint64Struct(reflect.ValueOf(res.Engine)); err != nil {
		return nil, err
	}
	e.bool(res.GatewayDetected)
	e.varint(int64(res.GatewayDetectedAt))

	payload := e.buf
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, codecMagic...)
	out = append(out, codecVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...), nil
}

// DecodeResult parses one framed entry. It never panics on arbitrary
// input: every length is validated against the remaining bytes before any
// allocation, and any inconsistency returns ErrCorrupt (or
// ErrCodecVersion for a valid frame from another codec revision).
func DecodeResult(data []byte) (*core.Result, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := data[4]; v != codecVersion {
		return nil, fmt.Errorf("%w: entry version %d, this codec speaks %d", ErrCodecVersion, v, codecVersion)
	}
	plen := binary.LittleEndian.Uint32(data[5:9])
	sum := binary.LittleEndian.Uint32(data[9:13])
	payload := data[headerSize:]
	if uint64(plen) != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: frame declares %d payload bytes, has %d (torn write?)", ErrCorrupt, plen, len(payload))
	}
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return nil, fmt.Errorf("%w: CRC32C mismatch (stored %08x, computed %08x)", ErrCorrupt, sum, got)
	}

	d := decoder{buf: payload}
	res := &core.Result{}
	var err error
	if res.Infections, err = d.curve(); err != nil {
		return nil, err
	}
	final, err := d.varint()
	if err != nil {
		return nil, err
	}
	res.FinalInfected = int(final)
	if err := d.uint64Struct(reflect.ValueOf(&res.Network).Elem()); err != nil {
		return nil, err
	}
	if err := d.uint64Struct(reflect.ValueOf(&res.Engine).Elem()); err != nil {
		return nil, err
	}
	if res.GatewayDetected, err = d.bool(); err != nil {
		return nil, err
	}
	at, err := d.varint()
	if err != nil {
		return nil, err
	}
	res.GatewayDetectedAt = time.Duration(at)
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return res, nil
}

// encoder accumulates the payload. Appends cannot fail; only structural
// problems (a non-uint64 counter field) surface as errors.
type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}
func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// curve encodes a step curve: presence flag, initial value, then points
// with delta-encoded times (appends are non-decreasing by construction)
// and exact value bits.
func (e *encoder) curve(c *curve.Curve) {
	if c == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.float(c.Initial)
	pts := c.Points()
	e.uvarint(uint64(len(pts)))
	prev := time.Duration(0)
	for _, p := range pts {
		e.uvarint(uint64(p.T - prev))
		e.float(p.V)
		prev = p.T
	}
}

// uint64Struct encodes a counters struct (mms.Metrics, virus.Stats) as a
// field count plus each field, walking the struct via reflection so a new
// counter is picked up automatically; the field count makes decode reject
// entries written before such a change instead of misassigning counters.
func (e *encoder) uint64Struct(v reflect.Value) error {
	e.uvarint(uint64(v.NumField()))
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			return fmt.Errorf("store: %s.%s is %s, codec handles only uint64 counters",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
		e.uvarint(f.Uint())
	}
	return nil
}

// decoder consumes the payload with bounds checks on every read.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) float() (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorrupt, d.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v, nil
}

func (d *decoder) bool() (bool, error) {
	if d.remaining() < 1 {
		return false, fmt.Errorf("%w: truncated bool at offset %d", ErrCorrupt, d.off)
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte %#x at offset %d", ErrCorrupt, b, d.off-1)
	}
	return b == 1, nil
}

// count reads a collection length and validates it against the smallest
// possible per-element size, so corrupt lengths fail before allocating.
func (d *decoder) count(minElemBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.remaining()/minElemBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining payload bytes", ErrCorrupt, n, d.remaining())
	}
	return int(n), nil
}

func (d *decoder) curve() (*curve.Curve, error) {
	present, err := d.bool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	initial, err := d.float()
	if err != nil {
		return nil, err
	}
	c := curve.New(initial)
	n, err := d.count(1 + 8) // uvarint delta + 8 value bytes
	if err != nil {
		return nil, err
	}
	t := time.Duration(0)
	for i := 0; i < n; i++ {
		dt, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		v, err := d.float()
		if err != nil {
			return nil, err
		}
		t += time.Duration(dt)
		if err := c.Append(t, v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return c, nil
}

func (d *decoder) uint64Struct(v reflect.Value) error {
	n, err := d.uvarint()
	if err != nil {
		return err
	}
	if n != uint64(v.NumField()) {
		return fmt.Errorf("%w: %s has %d fields, entry stores %d (written before a schema change?)",
			ErrCorrupt, v.Type(), v.NumField(), n)
	}
	for i := 0; i < v.NumField(); i++ {
		c, err := d.uvarint()
		if err != nil {
			return err
		}
		v.Field(i).SetUint(c)
	}
	return nil
}
