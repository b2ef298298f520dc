"""FM-CW radar vehicle classification pipeline."""
