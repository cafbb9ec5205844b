#include "schemes/scheme.h"

#include <stdexcept>
#include <string>

namespace voltcache {

std::string_view schemeName(SchemeKind kind) noexcept {
    switch (kind) {
        case SchemeKind::DefectFree: return "defect-free";
        case SchemeKind::Conventional760: return "conventional-760mV";
        case SchemeKind::Robust8T: return "8T";
        case SchemeKind::SimpleWordDisable: return "simple-wdis";
        case SchemeKind::WilkersonPlus: return "wilkerson+";
        case SchemeKind::FbaPlus: return "fba+";
        case SchemeKind::IdcPlus: return "idc+";
        case SchemeKind::FfwBbr: return "ffw+bbr";
    }
    return "unknown";
}

SchemeKind parseSchemeKind(std::string_view name) {
    for (const SchemeKind kind : kAllSchemes) {
        if (schemeName(kind) == name) return kind;
    }
    throw std::runtime_error("unknown scheme '" + std::string(name) + "'");
}

} // namespace voltcache
