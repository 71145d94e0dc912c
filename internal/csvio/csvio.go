// Package csvio reads and writes relations in the plain tab-separated text
// format used by the FDB and RDB engines of the paper ("FDB and RDB use
// the plain text format", Section 5) and by cmd/fdb and cmd/fdgen.
//
// Format: the first line is "Name<TAB>attr1<TAB>attr2…"; every following
// non-empty line is one tuple. A column is an integer column when every one
// of its fields parses as a signed 64-bit integer, and a string column
// otherwise: its fields, numerals too, are dictionary-encoded through the
// supplied Dict once the whole file has parsed (Table.Encode).
package csvio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Table is one parsed relation file: its name, its qualified schema, each
// column's kind (none for a file without tuples) and its rows, still text.
// Read checks every line before it returns a Table, so nothing is
// dictionary-encoded until Encode, which cannot fail.
type Table struct {
	Name   string
	Schema relation.Schema
	Kinds  []relation.Kind
	rows   [][]string
}

// Read parses one relation. Attribute names are qualified as "Name.attr"
// so schemas from different files never collide.
func Read(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("csvio: empty input")
	}
	head := strings.Split(sc.Text(), "\t")
	if len(head) < 2 {
		return nil, fmt.Errorf("csvio: header %q needs a name and at least one attribute", sc.Text())
	}
	t := &Table{Name: head[0], Schema: make(relation.Schema, len(head)-1), Kinds: make([]relation.Kind, len(head)-1)}
	for i, a := range head[1:] {
		if a == "" {
			return nil, fmt.Errorf("csvio: empty attribute name in header")
		}
		t.Schema[i] = relation.Attribute(t.Name + "." + a)
	}
	if err := t.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	line := 1
	for sc.Scan() {
		line++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		fields := strings.Split(txt, "\t")
		if len(fields) != len(t.Schema) {
			return nil, fmt.Errorf("csvio: line %d has %d fields, schema has %d", line, len(fields), len(t.Schema))
		}
		for i, f := range fields {
			if t.Kinds[i] != relation.KindStr {
				t.Kinds[i] = relation.KindInt
				if _, err := strconv.ParseInt(f, 10, 64); err != nil {
					t.Kinds[i] = relation.KindStr
				}
			}
		}
		t.rows = append(t.rows, fields)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Encode returns the table as a relation: an integer column's fields are
// stored numerically, a string column's dictionary-encoded through dict.
func (t *Table) Encode(dict *relation.Dict) *relation.Relation {
	rel := relation.New(t.Name, t.Schema)
	for _, fields := range t.rows {
		tp := make(relation.Tuple, len(fields))
		for i, f := range fields {
			if t.Kinds[i] == relation.KindInt {
				n, _ := strconv.ParseInt(f, 10, 64)
				tp[i] = relation.Value(n)
			} else {
				tp[i] = dict.Encode(f)
			}
		}
		rel.AppendTuple(tp)
	}
	return rel
}

// ReadFile opens and parses one relation file.
func ReadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Write renders the relation in the text format, each value as
// relation.AppendCell renders it under snap (a dictionary snapshot) and its
// column's kind in kinds (nil: every column numeric). Attribute names are
// written unqualified (the "Name." prefix, if present, is stripped).
func Write(w io.Writer, rel *relation.Relation, snap []string, kinds []relation.Kind) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(rel.Name); err != nil {
		return err
	}
	for _, a := range rel.Schema {
		name := string(a)
		if i := strings.IndexByte(name, '.'); i >= 0 && name[:i] == rel.Name {
			name = name[i+1:]
		}
		bw.WriteByte('\t')
		bw.WriteString(name)
	}
	bw.WriteByte('\n')
	var cell []byte
	for _, t := range rel.Tuples {
		for i, v := range t {
			if i > 0 {
				bw.WriteByte('\t')
			}
			k := relation.KindInt
			if kinds != nil {
				k = kinds[i]
			}
			cell = relation.AppendCell(cell[:0], snap, v, k)
			bw.Write(cell)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteFile writes the relation to path.
func WriteFile(path string, rel *relation.Relation, snap []string, kinds []relation.Kind) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, rel, snap, kinds); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
