package lib

// Config is an option struct: each exported field needs a writer outside
// lib.
type Config struct {
	Keyed    int // set in a keyed literal by cmd/app
	Assigned int // set by an assignment in cmd/app
	Bumped   int // set by ++ in cmd/app
	Pointed  int // set through & by cmd/app, the form flag.IntVar takes
	Promoted int // set through the embedding Wrapper by cmd/app
	ExtSet   int // set only by the module ext
	Read     int // want "exported field Config.Read"
	OwnOnly  int // want "exported field Config.OwnOnly"
	//lint:ignore testonly tests reach a mode no default reaches
	Ignored int
	hidden  int
}

// PairOptions is set positionally by cmd/app.
type PairOptions struct {
	A, B int
}

// Wrapper embeds Config; its own fields are not judged.
type Wrapper struct {
	Config
	Extra int
}

// Defaults sets OwnOnly inside lib, which does not count as a caller.
func Defaults() Config { return Config{OwnOnly: 1, hidden: 2} }
