#include "analysis/verify.h"

#include "common/contracts.h"

namespace voltcache::analysis {

void attachStaticVerifier(LinkOptions& options, const Module* module) {
    VC_EXPECTS(options.bbrPlacement && options.icacheFaultMap != nullptr);
    const FaultMap* map = options.icacheFaultMap;
    options.postLinkVerifier = [map, module](const Image& image) {
        const PlacementProof proof = provePlacement(image, *map, module);
        if (!proof.verified) {
            throw LinkError("static placement proof failed:\n" + formatProof(proof),
                            LinkFailCause::Verifier);
        }
    };
}

LinkOutput linkVerified(const Module& module, LinkOptions options) {
    attachStaticVerifier(options, &module);
    return link(module, options);
}

} // namespace voltcache::analysis
