"""KG-construction benchmark over a seeded page corpus (see README.md)."""
