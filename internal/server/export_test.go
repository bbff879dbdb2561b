package server

// Kill ends d as a killed process leaves it: the journal's frames are
// on disk (a process kill does not lose what reached the page cache),
// and no final checkpoint is written.
func (d *Durable) Kill() error { return d.w.Close() }
