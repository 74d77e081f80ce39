package unixfs

// TreeSize returns the total regular-file bytes under root, the sum that
// UsedBytes keeps as files change.
func (fs *FS) TreeSize(root string) (int64, error) {
	var total int64
	err := fs.Walk(root, func(_ string, st Stat) error {
		if st.Type == TypeRegular {
			total += st.Size
		}
		return nil
	})
	return total, err
}
