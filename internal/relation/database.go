package relation

import (
	"fmt"
)

// Database is a named collection of relation instances. The paper
// presents the framework over a single relation for clarity and notes
// it extends to multiple relations along the lines of [7]; Database is
// that extension: constraints and priorities stay intra-relation,
// queries may span relations.
type Database struct {
	rels  map[string]*Instance
	order []string
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Instance)}
}

// AddInstance registers an existing instance under its schema name.
func (db *Database) AddInstance(inst *Instance) error {
	name := inst.Schema().Name()
	if _, dup := db.rels[name]; dup {
		return fmt.Errorf("relation: database already has relation %q", name)
	}
	db.rels[name] = inst
	db.order = append(db.order, name)
	return nil
}

// Relation returns the named instance.
func (db *Database) Relation(name string) (*Instance, bool) {
	r, ok := db.rels[name]
	return r, ok
}

// Names returns the relation names in registration order.
func (db *Database) Names() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}
