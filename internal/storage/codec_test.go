package storage

import (
	"errors"
	"math"
	"testing"

	"unmasque/internal/sqldb"
)

// codecRows exercises every value type, typed NULLs, and the edge
// payloads (empty text, NaN-adjacent floats, extreme ints).
func codecRows() []sqldb.Row {
	return []sqldb.Row{
		{sqldb.NewInt(0), sqldb.NewInt(-1), sqldb.NewInt(math.MaxInt64), sqldb.NewInt(math.MinInt64)},
		{sqldb.NewFloat(0), sqldb.NewFloat(-0.0), sqldb.NewFloat(math.SmallestNonzeroFloat64), sqldb.NewFloat(math.Inf(-1))},
		{sqldb.NewText(""), sqldb.NewText("hello"), sqldb.NewText("naïve — ünïcode\x00binary")},
		{sqldb.NewBool(true), sqldb.NewBool(false), sqldb.NewDate(19000), sqldb.NewDate(-3)},
		{sqldb.NewNull(sqldb.TInt), sqldb.NewNull(sqldb.TFloat), sqldb.NewNull(sqldb.TText), sqldb.NewNull(sqldb.TDate), sqldb.NewNull(sqldb.TBool)},
		{}, // zero-column row
	}
}

func rowsEqual(t *testing.T, ctx string, got, want []sqldb.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", ctx, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d col %d: %#v != %#v", ctx, i, c, got[i][c], want[i][c])
			}
		}
	}
}

func TestRowRoundTrip(t *testing.T) {
	for i, row := range codecRows() {
		enc := appendRow(nil, row)
		got, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if len(got) != len(row) {
			t.Fatalf("row %d: arity %d, want %d", i, len(got), len(row))
		}
		for c := range row {
			if got[c] != row[c] {
				t.Errorf("row %d col %d: %#v != %#v", i, c, got[c], row[c])
			}
		}
	}
}

// Float bits must survive exactly — fingerprint parity depends on it.
func TestFloatBitExact(t *testing.T) {
	v := sqldb.Value{Typ: sqldb.TFloat, F: math.Float64frombits(0x7ff8000000000001)} // quiet NaN payload
	enc := appendValue(nil, v)
	got, _, err := decodeValue(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.F) != math.Float64bits(v.F) {
		t.Fatalf("NaN bits changed: %x != %x", math.Float64bits(got.F), math.Float64bits(v.F))
	}
}

func TestDecodeRowTruncation(t *testing.T) {
	enc := appendRow(nil, sqldb.Row{sqldb.NewInt(7), sqldb.NewText("abcdef")})
	// Every strict prefix must fail with ErrTornRecord, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := decodeRow(enc[:n]); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTornRecord", n, len(enc), err)
		}
	}
}

func TestDecodeRowTrailingBytes(t *testing.T) {
	enc := appendRow(nil, sqldb.Row{sqldb.NewInt(7)})
	enc = append(enc, 0xEE)
	if _, err := decodeRow(enc); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("trailing byte: err = %v, want ErrTornRecord", err)
	}
}

func TestDecodeValueShortText(t *testing.T) {
	// Text tag claiming 100 payload bytes with only 3 present.
	enc := appendValue(nil, sqldb.NewText("abc"))
	enc[1] = 100 // little-endian length field
	if _, _, err := decodeValue(enc, 0); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("short text: err = %v, want ErrTornRecord", err)
	}
}
