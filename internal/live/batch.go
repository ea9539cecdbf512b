package live

import (
	"encoding/binary"
	"fmt"
	"math"

	"viewseeker/internal/dataset"
)

// Value kind tags of the batch payload encoding.
const (
	tagNull = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

// encodeBatch serialises rows as one WAL frame payload: row/column counts,
// then rows row-major with one kind tag per value. The WAL itself writes
// the sequence number ahead of these bytes. The encoding is
// schema-independent — recovery can decode without the table — and every
// variable-length field is length-prefixed, following the internal/store
// fingerprint conventions.
func encodeBatch(rows [][]dataset.Value) ([]byte, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("live: empty batch")
	}
	width := len(rows[0])
	buf := make([]byte, 0, 8+len(rows)*width*9)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(width))
	for _, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("live: ragged batch: row has %d values, want %d", len(row), width)
		}
		for _, v := range row {
			switch {
			case v.IsNull():
				buf = append(buf, tagNull)
			case v.Kind == dataset.KindInt:
				buf = append(buf, tagInt)
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
			case v.Kind == dataset.KindFloat:
				buf = append(buf, tagFloat)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
			case v.Kind == dataset.KindString:
				buf = append(buf, tagString)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
				buf = append(buf, v.S...)
			case v.Kind == dataset.KindBool:
				buf = append(buf, tagBool)
				if v.B {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			default:
				return nil, fmt.Errorf("live: cannot encode value kind %v", v.Kind)
			}
		}
	}
	return buf, nil
}

// decodeBatch reverses encodeBatch. Every read is bounds-checked so a
// corrupted payload yields an error, never a panic.
func decodeBatch(p []byte) ([][]dataset.Value, error) {
	if len(p) < 8 {
		return nil, fmt.Errorf("live: batch payload too short (%d bytes)", len(p))
	}
	nrows := int(binary.LittleEndian.Uint32(p[0:4]))
	width := int(binary.LittleEndian.Uint32(p[4:8]))
	// Every value costs at least its tag byte, which bounds the shape by
	// the payload before anything is allocated.
	if nrows <= 0 || width <= 0 || width > 1<<16 || nrows*width > len(p)-8 {
		return nil, fmt.Errorf("live: implausible batch shape %d×%d", nrows, width)
	}
	off := 8
	rows := make([][]dataset.Value, nrows)
	for r := range rows {
		row := make([]dataset.Value, width)
		for c := range row {
			if off >= len(p) {
				return nil, fmt.Errorf("live: batch payload truncated at row %d", r)
			}
			tag := p[off]
			off++
			switch tag {
			case tagNull:
				row[c] = dataset.Null
			case tagInt:
				if off+8 > len(p) {
					return nil, fmt.Errorf("live: batch payload truncated in int value")
				}
				row[c] = dataset.Int(int64(binary.LittleEndian.Uint64(p[off:])))
				off += 8
			case tagFloat:
				if off+8 > len(p) {
					return nil, fmt.Errorf("live: batch payload truncated in float value")
				}
				row[c] = dataset.Float(math.Float64frombits(binary.LittleEndian.Uint64(p[off:])))
				off += 8
			case tagString:
				if off+4 > len(p) {
					return nil, fmt.Errorf("live: batch payload truncated in string length")
				}
				n := int(binary.LittleEndian.Uint32(p[off:]))
				off += 4
				if n < 0 || off+n > len(p) {
					return nil, fmt.Errorf("live: batch payload truncated in string value")
				}
				row[c] = dataset.StringVal(string(p[off : off+n]))
				off += n
			case tagBool:
				if off >= len(p) {
					return nil, fmt.Errorf("live: batch payload truncated in bool value")
				}
				row[c] = dataset.Bool(p[off] == 1)
				off++
			default:
				return nil, fmt.Errorf("live: unknown value tag %d", tag)
			}
		}
		rows[r] = row
	}
	if off != len(p) {
		return nil, fmt.Errorf("live: %d trailing bytes after batch payload", len(p)-off)
	}
	return rows, nil
}
