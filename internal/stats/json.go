package stats

import "encoding/json"

// tableJSON is the wire form of a Table: the same three pieces the text
// renderer uses, with rows as a matrix of already-formatted cells. It
// exists so Table can keep its rows unexported while still round-
// tripping through the numagpud HTTP API and the -json CLI output.
type tableJSON struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {"title","columns","rows"}. The
// encoding is deterministic: same table, same bytes.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{Title: t.Title, Columns: t.Columns, Rows: rows})
}

// UnmarshalJSON decodes the MarshalJSON form, replacing the table's
// contents.
func (t *Table) UnmarshalJSON(b []byte) error {
	var raw tableJSON
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	t.Title, t.Columns, t.rows = raw.Title, raw.Columns, raw.Rows
	return nil
}
