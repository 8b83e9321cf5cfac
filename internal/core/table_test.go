package core

import (
	"math"
	"testing"
	"time"
)

// TestRenderCellKinds pins the cell format at the edges no golden
// reaches: values that round to negative zero, whole and empty shares,
// a ratio over zero and empty counts.
func TestRenderCellKinds(t *testing.T) {
	for _, tc := range []struct {
		c    cell
		want string
	}{
		{textCell("push all"), "push all"},
		{textCell(""), ""},
		{countCell(0), "0"},
		{countCell(int64(1057)), "1057"},
		{countCell(-3), "-3"},
		{msCell(-0.4), "-0"},
		{msCell(math.Copysign(0, -1)), "-0"},
		{msCell(1234.5), "1234"},
		{msCell(millis(1500 * time.Microsecond)), "2"},
		{ms1Cell(-0.04), "-0.0"},
		{ms1Cell(0), "0.0"},
		{ms1Cell(millis(911_549_999)), "911.5"},
		{shareCell(1), "100.0%"},
		{shareCell(0), "0.0%"},
		{shareCell(-0.0004), "-0.0%"},
		{shareCell(-0.521), "-52.1%"},
		{ratioCell(time.Second, 0), "-"},
		{ratioCell(0, 0), "-"},
		{ratioCell(3*time.Second, 2*time.Second), "1.50"},
		{ratioCell(0, time.Second), "0.00"},
		{fracCell(0, 4), "0/4"},
		{fracCell(8, 8), "8/8"},
	} {
		if got := render(tc.c); got != tc.want {
			t.Errorf("render(%+v) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

// TestTableCellLookup: Cell finds a value by column and row labels,
// misses on an unknown column or key, and add keeps the typed rows and
// Rows the same length.
func TestTableCellLookup(t *testing.T) {
	tab := &Table{Header: []string{"strategy", "clients", "complete"}}
	tab.add(textCell("no push"), countCell(1), fracCell(2, 2))
	tab.add(textCell("push all"), countCell(4), fracCell(7, 8))
	if len(tab.cells) != len(tab.Rows) {
		t.Fatalf("%d typed rows, %d rendered", len(tab.cells), len(tab.Rows))
	}
	if got := tab.Rows[1]; len(got) != 3 || got[2] != "7/8" {
		t.Fatalf("rendered row = %q", got)
	}
	c, ok := tab.cell("complete", "push all", "4")
	if !ok || c.Kind != CellFrac || c.X != 7 || c.Of != 8 {
		t.Fatalf("Cell(complete, push all, 4) = %+v, %v", c, ok)
	}
	if c, ok := tab.cell("clients", "no push"); !ok || c.X != 1 {
		t.Fatalf("Cell(clients, no push) = %+v, %v", c, ok)
	}
	for _, miss := range [][]string{
		{"PLT", "push all"},
		{"complete", "push critical"},
		{"complete", "push all", "1"},
		{"complete", "push all", "4", "extra", "keys"},
	} {
		if c, ok := tab.cell(miss[0], miss[1:]...); ok {
			t.Errorf("Cell(%q) = %+v, want a miss", miss, c)
		}
	}
}
