"""Customer geography: the simulated Alexa Web Information Service.

The paper asks whether services are deployed near their customers by
taking each domain's dominant client country from Alexa's web
information service and comparing it with the country hosting the
subdomain's front ends.  Our stand-in exposes the same two lookups —
customer country per domain (None when unidentified, 25% of the time)
and country/continent for a cloud region's location.
"""

from __future__ import annotations

from typing import Dict, Optional


#: Country → continent (two-letter country codes, as the model uses).
COUNTRY_CONTINENT: Dict[str, str] = {
    "US": "NA", "CA": "NA", "MX": "NA",
    "BR": "SA", "CL": "SA", "AR": "SA",
    "GB": "EU", "DE": "EU", "FR": "EU", "RU": "EU", "IT": "EU",
    "ES": "EU", "NL": "EU", "IE": "EU", "PT": "EU", "PL": "EU",
    "SE": "EU", "FI": "EU", "NO": "EU", "DK": "EU", "CH": "EU",
    "AT": "EU", "CZ": "EU", "GR": "EU", "TR": "EU", "BE": "EU",
    "IN": "AS", "CN": "AS", "JP": "AS", "KR": "AS", "SG": "AS",
    "HK": "AS", "TW": "AS", "MY": "AS", "TH": "AS", "IL": "AS",
    "AU": "OC", "NZ": "OC",
}

#: Cloud region → the country its data center sits in.
REGION_HOST_COUNTRY: Dict[str, str] = {
    # EC2
    "us-east-1": "US", "us-west-1": "US", "us-west-2": "US",
    "eu-west-1": "IE", "ap-southeast-1": "SG", "ap-northeast-1": "JP",
    "sa-east-1": "BR", "ap-southeast-2": "AU",
    # Azure
    "us-east": "US", "us-west": "US", "us-north": "US", "us-south": "US",
    "eu-west": "IE", "eu-north": "NL", "ap-southeast": "SG",
    "ap-east": "HK",
}


class CustomerModel:
    """Per-domain customer-country lookups over a domain → country
    mapping, which the model keeps as given.

    The world collects the mapping while it deploys, so a build that
    releases plan objects as it goes need not keep every plan alive.
    """

    def __init__(self, country_by_domain: Dict[str, Optional[str]]):
        self._country = country_by_domain

    def customer_country(self, domain: str) -> Optional[str]:
        """The domain's dominant client country, or None if the web
        information service has no data for it."""
        return self._country.get(domain)

    @staticmethod
    def continent_of(country: Optional[str]) -> Optional[str]:
        if country is None:
            return None
        return COUNTRY_CONTINENT.get(country)

    @staticmethod
    def region_country(region_name: str) -> Optional[str]:
        return REGION_HOST_COUNTRY.get(region_name)

    @staticmethod
    def region_continent(region_name: str) -> Optional[str]:
        country = REGION_HOST_COUNTRY.get(region_name)
        if country is None:
            return None
        return COUNTRY_CONTINENT.get(country)
