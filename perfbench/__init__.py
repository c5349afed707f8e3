"""Fixed-seed benchmark of the basincycles CLI; see README.md."""
