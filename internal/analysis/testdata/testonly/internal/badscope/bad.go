// Package badscope carries a file-scope directive for an analyzer that
// keeps line scope.
//
//pvclint:ignore walltime a whole-file wall-clock exception is not allowed
package badscope

// Used is called from the tool, so only the directive is a finding.
func Used() int { return 5 }
