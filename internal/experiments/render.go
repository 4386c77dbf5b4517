package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// renderTable writes an aligned ASCII table.
func renderTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	rule := make([]string, len(headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
}

// pad widens s to w columns, counting runes: a label may hold a σ.
func pad(s string, w int) string {
	return s + strings.Repeat(" ", max(w-utf8.RuneCountInString(s), 0))
}

// renderBar writes one row of a horizontal bar chart scaled to maxWidth
// columns.
func renderBar(w io.Writer, label string, value, max float64, labelWidth int) {
	const maxWidth = 44
	bar := 0
	if max > 0 {
		bar = int(value / max * maxWidth)
	}
	if bar > maxWidth {
		bar = maxWidth
	}
	fmt.Fprintf(w, "  %s |%s %0.4f\n", pad(label, labelWidth), strings.Repeat("#", bar), value)
}

// renderSeries writes a small numeric series as "x: y" pairs on one line.
func renderSeries(w io.Writer, name string, xs []int, ys []float64) {
	var sb strings.Builder
	for i, x := range xs {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%d:%.4f", x, ys[i])
	}
	fmt.Fprintf(w, "  %-18s %s\n", name, sb.String())
}

func heading(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
