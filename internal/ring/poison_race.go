//go:build race

package ring

// poisonRows makes Rows poison every recycled row: the race detector's
// builds (the race line of CI) turn a use-after-recycle into a wrong
// digest or logit.
const poisonRows = true
