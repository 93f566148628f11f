package metrics

import (
	"fmt"
	"strings"
)

// GanttLane is one resource row in a Gantt chart: a name plus its
// occupancy intervals in nanoseconds.
type GanttLane struct {
	Name      string
	Intervals []GanttSpan
}

// GanttSpan is one occupancy interval with a single-rune label class.
type GanttSpan struct {
	Start, End int64
	Label      string // first rune is drawn; full label appears in the legend
}

// Gantt renders resource occupancy over time as ASCII art — used to
// regenerate the paper's Figure 1 (channel-bound reads vs chip-bound
// writes).
type Gantt struct {
	lanes []GanttLane
	width int
}

// NewGantt returns a chart that renders across width character columns.
func NewGantt(width int) *Gantt {
	if width < 10 {
		width = 10
	}
	return &Gantt{width: width}
}

// AddLane appends a resource row.
func (g *Gantt) AddLane(name string, spans []GanttSpan) {
	g.lanes = append(g.lanes, GanttLane{Name: name, Intervals: spans})
}

// String renders the chart. Each lane is a row; time flows left to
// right; '·' marks idle time; span cells repeat the first rune of the
// span's label.
func (g *Gantt) String() string {
	var minT, maxT int64
	first := true
	for _, l := range g.lanes {
		for _, s := range l.Intervals {
			if first || s.Start < minT {
				minT = s.Start
			}
			if first || s.End > maxT {
				maxT = s.End
				first = false
			}
			if s.End > maxT {
				maxT = s.End
			}
		}
	}
	if first || maxT <= minT {
		return "(empty gantt)"
	}
	span := maxT - minT
	nameW := 0
	for _, l := range g.lanes {
		if len(l.Name) > nameW {
			nameW = len(l.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s 0%s%s\n", nameW, "time", strings.Repeat(" ", g.width-len(fmtDur(span))-1), fmtDur(span))
	labels := map[string]bool{}
	for _, l := range g.lanes {
		row := make([]rune, g.width)
		for i := range row {
			row[i] = '·'
		}
		for _, s := range l.Intervals {
			c := '#'
			if s.Label != "" {
				c = []rune(s.Label)[0]
				labels[s.Label] = true
			}
			from := int(float64(s.Start-minT) / float64(span) * float64(g.width))
			to := int(float64(s.End-minT) / float64(span) * float64(g.width))
			if to <= from {
				to = from + 1
			}
			if to > g.width {
				to = g.width
			}
			for i := from; i < to; i++ {
				row[i] = c
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, l.Name, string(row))
	}
	if len(labels) > 0 {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sortStrings(keys)
		b.WriteString("legend:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %c=%s", []rune(k)[0], k)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func fmtDur(ns int64) string {
	switch {
	case ns < 1e3:
		return fmt.Sprintf("%dns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.0fµs", float64(ns)/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
