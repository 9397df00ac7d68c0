package cqa

import (
	"sync"

	"prefcqa/internal/query"
)

// queryCacheEntries bounds a QueryCache. An entry is the analysed query
// of one text, a few hundred bytes for a point read, so the bound keeps a
// database's cache under about half a megabyte however many distinct
// texts arrive — a stream of never-repeated texts must not grow the
// server — while the hot texts of a skewed read mix (a few hundred keys
// carry most of a Zipf stream) stay resident.
const queryCacheEntries = 1024

// QueryCache keeps the analysed form of query texts (query.Analyze) for
// one database, so a repeated text is parsed, validated and analysed
// once. The key is the exact text: lexing is most of parsing, and a
// parameterised key would still lex every request.
//
// An entry is valid for one schema epoch: the relations a database has,
// which only relation creation changes (the creator bumps the epoch). A
// lookup under a newer epoch empties the cache first, so a hit is also a
// query validated against the caller's schemas; a lookup under an older
// epoch (a reader on an old snapshot) bypasses it. Texts that fail to
// parse or validate are not kept. When full, an arbitrary entry makes
// room (Go's map iteration order is randomised, so in effect a random
// one): hot texts come back at once, and nothing is kept per hit.
//
// The zero value is ready to use and safe for concurrent use.
type QueryCache struct {
	mu      sync.Mutex
	epoch   uint64
	entries map[string]*query.Analyzed
}

// Analyzed returns the analysed query of src, parsed and validated
// against in's schemas, which are those of the given schema epoch. The
// lookup is counted in in.Stats.
func (c *QueryCache) Analyzed(in Input, epoch uint64, src string) (*query.Analyzed, error) {
	c.mu.Lock()
	if epoch > c.epoch {
		c.epoch, c.entries = epoch, nil
	}
	current := epoch == c.epoch
	a, hit := c.entries[src]
	c.mu.Unlock()
	if hit && current {
		in.Stats.noteQueryCache(true)
		return a, nil
	}
	in.Stats.noteQueryCache(false)
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := query.Validate(q, in.schemas()); err != nil {
		return nil, err
	}
	a = query.Analyze(q)
	if current {
		c.mu.Lock()
		if epoch == c.epoch {
			if c.entries == nil {
				c.entries = make(map[string]*query.Analyzed)
			}
			if len(c.entries) >= queryCacheEntries {
				for k := range c.entries {
					delete(c.entries, k)
					break
				}
			}
			c.entries[src] = a
		}
		c.mu.Unlock()
	}
	return a, nil
}
