package pipeline

import (
	"errors"
	"math"
)

// diskRows is the persisted form of core.Schedule.Rows. It marshals exactly
// like [][]int (it declares no MarshalJSON), and its UnmarshalJSON accepts
// exactly what encoding/json accepts into a [][]int, with the same result,
// without reflection: a warm restart decodes thousands of these, and the
// reflective decode of the rows was most of LoadDisk's JSON cost.
// FuzzDiskRows holds the two decoders to each other.
type diskRows [][]int

// errDiskRows is the one error of the rows decoder: the input is either not
// JSON or not a [][]int.
var errDiskRows = errors.New("pipeline: issue rows are not a JSON [][]int")

// UnmarshalJSON decodes a JSON array of arrays of integers. As in
// encoding/json, a null row decodes to a nil row, [] to an empty non-nil
// one, a null element to 0, and a top-level null to nil; fractions,
// exponents and out-of-range integers are errors. The rows share one
// exactly sized backing array, each capped at its own length.
func (r *diskRows) UnmarshalJSON(data []byte) error {
	nrows, nints, err := scanRows(data, nil, nil)
	if err != nil {
		return err
	}
	if nrows < 0 {
		*r = nil
		return nil
	}
	rows := make([][]int, nrows)
	_, _, err = scanRows(data, rows, make([]int, nints))
	*r = rows
	return err
}

// scanRows parses data as JSON null or a [][]int. It counts the rows and the
// integers (nrows is -1 for a top-level null); given rows and flat sized by
// a counting pass, it also fills them in.
func scanRows(data []byte, rows [][]int, flat []int) (nrows, nints int, err error) {
	s := rowScanner{data: data}
	s.space()
	switch {
	case s.literal("null"):
		nrows = -1
	case s.eat('['):
		if s.space(); s.eat(']') {
			break
		}
		for {
			s.space()
			if !s.literal("null") {
				if !s.eat('[') {
					return 0, 0, errDiskRows
				}
				start := nints
				if s.space(); !s.eat(']') {
					for {
						s.space()
						v := 0
						if !s.literal("null") {
							if v, err = s.integer(); err != nil {
								return 0, 0, err
							}
						}
						if flat != nil {
							flat[nints] = v
						}
						nints++
						if !s.next() {
							break
						}
					}
					if s.err {
						return 0, 0, errDiskRows
					}
				}
				if rows != nil {
					rows[nrows] = flat[start:nints:nints]
				}
			}
			nrows++
			if !s.next() {
				break
			}
		}
		if s.err {
			return 0, 0, errDiskRows
		}
	default:
		return 0, 0, errDiskRows
	}
	if s.space(); s.i != len(s.data) {
		return 0, 0, errDiskRows
	}
	return nrows, nints, nil
}

// rowScanner walks the bytes of one rows value.
type rowScanner struct {
	data []byte
	i    int
	err  bool // next found neither ',' nor ']'
}

// space skips JSON whitespace.
func (s *rowScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (s *rowScanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (s *rowScanner) literal(lit string) bool {
	if len(s.data)-s.i >= len(lit) && string(s.data[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// next consumes the separator after an array element: true at ',' (another
// element follows), false at ']' (the array ended) or, setting err, at
// anything else.
func (s *rowScanner) next() bool {
	s.space()
	if s.eat(',') {
		return true
	}
	s.err = !s.eat(']')
	return false
}

// integer parses the integer part of a JSON number, which must be in int's
// range, the way encoding/json stores a number into an int. A fraction or an
// exponent is left unread, so the separator check after it fails.
func (s *rowScanner) integer() (int, error) {
	neg := s.eat('-')
	limit := uint64(math.MaxInt)
	if neg {
		limit++ // -MinInt
	}
	if s.i == len(s.data) || s.data[s.i] < '0' || s.data[s.i] > '9' {
		return 0, errDiskRows
	}
	var u uint64
	if s.data[s.i] == '0' {
		s.i++
	} else {
		for s.i < len(s.data) && s.data[s.i] >= '0' && s.data[s.i] <= '9' {
			d := uint64(s.data[s.i] - '0')
			if u > (limit-d)/10 {
				return 0, errDiskRows
			}
			u = u*10 + d
			s.i++
		}
	}
	if neg {
		return -int(u), nil // u == -MinInt wraps to MinInt, as wanted
	}
	return int(u), nil
}
