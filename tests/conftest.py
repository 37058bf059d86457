import pytest

from holopulse import engine


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Each test starts with empty engine memos, whatever ran before it; a
    test that needs them empty again later clears them itself."""
    engine.first_half_block.cache_clear()
    engine.drive_steps.cache_clear()
    engine.first_half_channel.cache_clear()
