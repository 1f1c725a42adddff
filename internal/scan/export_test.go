package scan

// Indexed reports, for the external benchmark in package scan_test,
// whether e scans through a repository index.
func (e *Engine) Indexed() bool { return e.indexed() }
