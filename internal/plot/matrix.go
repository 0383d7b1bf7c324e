package plot

import "fmt"

// Matrix is a dense row-major result grid: Rows x Cols float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("plot: matrix dimensions must be positive")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the value at (row, col).
func (m *Matrix) At(row, col int) float64 {
	m.check(row, col)
	return m.Data[row*m.Cols+col]
}

// Set stores v at (row, col).
func (m *Matrix) Set(row, col int, v float64) {
	m.check(row, col)
	m.Data[row*m.Cols+col] = v
}

func (m *Matrix) check(row, col int) {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic(fmt.Sprintf("plot: index (%d,%d) out of %dx%d", row, col, m.Rows, m.Cols))
	}
}
