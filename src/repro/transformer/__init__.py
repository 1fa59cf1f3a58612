"""mScopeDataTransformer: declaration → parsers → XML → CSV → mScopeDB.

Nothing is re-exported: import a name from its submodule
(``from repro.transformer.pipeline import MScopeDataTransformer``), so
loading one stage does not load them all.
"""
