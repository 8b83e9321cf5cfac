package core

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is a printable experiment result. A driver builds it row by row
// from typed cells with add; Cell reads a value back by column name and
// row labels, so no reader parses a rendered string.
type Table struct {
	Title  string
	Header []string
	// Rows is the rendered form of the typed rows, row for row. Only add
	// writes it; Print and readers that want the text read it.
	Rows  [][]string
	Notes []string

	cells [][]cell
}

// cellKind says what a Cell's value is and how it renders.
type cellKind uint8

const (
	CellText  cellKind = iota // a label, Text as is
	CellCount                 // an integer X
	CellMs                    // X milliseconds, no decimals
	CellMs1                   // X milliseconds, one decimal
	CellShare                 // a fraction X, as a percentage with one decimal
	CellRatio                 // X/Of with two decimals, "-" when Of is 0
	CellFrac                  // X of Of, as "X/Of"
)

// cell is one typed table cell.
type cell struct {
	Kind cellKind
	Text string  // the label of a CellText cell
	X    float64 // the value; the numerator of a ratio or a fraction
	Of   float64 // the denominator of a ratio or a fraction
}

func textCell(s string) cell { return cell{Kind: CellText, Text: s} }

func countCell[T ~int | ~int64](n T) cell { return cell{Kind: CellCount, X: float64(n)} }

func msCell(v float64) cell { return cell{Kind: CellMs, X: v} }

func ms1Cell(v float64) cell { return cell{Kind: CellMs1, X: v} }

func shareCell(f float64) cell { return cell{Kind: CellShare, X: f} }

func ratioCell(a, b time.Duration) cell { return cell{Kind: CellRatio, X: float64(a), Of: float64(b)} }

func fracCell(n, m int64) cell { return cell{Kind: CellFrac, X: float64(n), Of: float64(m)} }

// millis is d in milliseconds, the unit of every time cell.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// render is the one place a cell's format lives.
func render(c cell) string {
	switch c.Kind {
	case CellText:
		return c.Text
	case CellCount:
		return fmt.Sprint(int64(c.X))
	case CellMs:
		return fmt.Sprintf("%.0f", c.X)
	case CellMs1:
		return fmt.Sprintf("%.1f", c.X)
	case CellShare:
		return fmt.Sprintf("%.1f%%", c.X*100)
	case CellRatio:
		if c.Of == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", c.X/c.Of)
	case CellFrac:
		return fmt.Sprintf("%d/%d", int64(c.X), int64(c.Of))
	}
	panic(fmt.Sprintf("core: unknown cell kind %d", c.Kind))
}

// add appends one row: the typed cells, and their rendering to Rows.
func (t *Table) add(cells ...cell) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = render(c)
	}
	t.cells = append(t.cells, cells)
	t.Rows = append(t.Rows, row)
}

// cell returns the cell in column col of the first row whose leading
// cells render as key, in order. A row's leading cells are its labels:
// Cell("complete", "push all", "4") reads a population table,
// Cell("dSI", "w1", "push critical optimized") reads Fig 6. It reports
// false when no column or no row matches.
func (t *Table) cell(col string, key ...string) (cell, bool) {
	j := slices.Index(t.Header, col)
	if j < 0 {
		return cell{}, false
	}
	for i, row := range t.cells {
		if len(row) >= len(key) && slices.Equal(t.Rows[i][:len(key)], key) {
			return row[j], true
		}
	}
	return cell{}, false
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func (t *Table) String() string {
	var sb strings.Builder
	t.Print(&sb)
	return sb.String()
}
