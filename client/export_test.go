package client

import "prefcqa"

// AppendInsert writes the body Client.Insert sends.
func AppendInsert(dst []byte, db, rel string, rows []prefcqa.Tuple) ([]byte, error) {
	return AppendJSON(dst, insertTuples{db: db, relation: rel, rows: rows})
}
