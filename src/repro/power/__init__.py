"""Power modelling: energy accounting, calibrated profiles, battery."""

from .._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(
    __name__,
    {
        ".accounting": (
            "ComponentEnergy",
            "EnergyBreakdown",
            "account",
            "awake_savings_fraction",
            "delivery_energy_mj",
            "savings_fraction",
        ),
        ".attribution": (
            "SYSTEM_SHARE",
            "AppEnergy",
            "attribute_energy",
            "attributed_total_mj",
            "attribution_table",
        ),
        ".battery": ("Battery", "battery_for", "standby_extension"),
        ".model": ("PowerModel", "make_component_map"),
        ".profiles": (
            "IDEAL_DELIVERY_ONLY",
            "NEXUS5",
            "NEXUS5_BATTERY_MJ",
            "PROFILES",
            "WEARABLE",
        ),
    },
)
