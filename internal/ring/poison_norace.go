//go:build !race

package ring

// poisonRows is off outside race builds: recycling costs no fill.
const poisonRows = false
